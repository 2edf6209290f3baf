//! `watdiv_serve` — the WatDiv basic workload over HTTP.
//!
//! A WatDiv-40 store (≈100 k triples) sits behind an in-process
//! `ParjServer`; one closed-loop client (one connection per request)
//! cycles a seed-permuted L/S/F/C mix with full SPARQL-JSON results. Joins are sub-millisecond, so the per-request fixed cost —
//! socket, HTTP parse, SPARQL parse, translate, optimize, dictionary
//! decode, serialize — dominates and join execution is a minority
//! share. A prepare-path or server change shows here and must show
//! nothing on `lubm_scan`.
//!
//! One op is one pass of the client over the list (17 requests): like
//! `lubm_scan`, the median of a fixed mix of very different requests
//! falls between two of them and moved ±13 % between seeds.
//!
//! Closed loop, and one client, on purpose: the sandbox has 2 cores of
//! a shared host. The client and the server's handler thread take
//! turns, so at most one of them is runnable at a time; a second client
//! (or an open-loop generator) would put more runnable threads on the
//! box than it has cores, and the run would measure the scheduler.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use parj_core::{parse_query, CacheStatus, EngineConfig, Parj, SharedParj};
use parj_datagen::watdiv::{self, WatDivConfig};
use parj_datagen::NamedQuery;
use parj_server::sparql::to_sparql_json;
use parj_server::{ParjServer, ServerConfig, ServerHandle};

use crate::json::{self, Value};
use crate::metrics::{ratio, MetricSet};
use crate::oracle::{self, RowDigest};
use crate::profile::{self, ReadCounters};
use crate::run::{end_to_end, OpLog, Outcome, RunArgs, Setups};
use crate::trace::Tracer;
use crate::{bench_config, http, micro, timing, Rng};

/// Basic-workload queries left out of the served mix, because their
/// cost is not per-request overhead: C1 returns ≈25 k rows (a 6 MB
/// body, two thirds of a pass, ±14 % between seeds), F5 and C3 spend
/// 4–7 ms in the join. `lubm_scan` is the join-bound workload.
const NOT_SERVED: [&str; 3] = ["C1", "C3", "F5"];

const HTTP: &str = "server.http";
const SERIALIZE: &str = "server.to_sparql_json";
const URLENCODED: &str = "server.parse_urlencoded";

/// Oracle expectation: one row digest per query, from the baseline
/// engine on a raw store.
pub fn expectation(cfg: &WatDivConfig) -> Value {
    let store = watdiv::generate_store(cfg);
    let queries = served_mix()
        .into_iter()
        .map(|q| (q.name, oracle::digest(&store, &q.sparql).to_json()));
    json::obj([
        ("scale", json::count(cfg.scale as u64)),
        ("triples", json::count(store.num_triples() as u64)),
        ("queries", json::obj(queries)),
    ])
}

fn served_mix() -> Vec<NamedQuery> {
    watdiv::basic_workload()
        .into_iter()
        .filter(|q| !NOT_SERVED.contains(&q.name.as_str()))
        .collect()
}

/// A served engine; shuts its server down when dropped so repeated
/// set-ups never overlap.
struct Served {
    shared: Arc<SharedParj>,
    server: ServerHandle,
    resident_bytes: usize,
    triples: usize,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

fn engine(cfg: &WatDivConfig, config: EngineConfig) -> Parj {
    Parj::from_store(watdiv::generate_store(cfg), config)
}

fn serve(cfg: &WatDivConfig) -> Served {
    let mut engine = engine(cfg, bench_config());
    let resident_bytes = engine.store().total_memory_bytes();
    let triples = engine.num_triples();
    let shared = Arc::new(SharedParj::new(engine));
    let server = ParjServer::spawn(
        Arc::clone(&shared),
        // One permit for the one client: the closed loop never sheds.
        ServerConfig {
            permits: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port");
    Served {
        shared,
        server,
        resident_bytes,
        triples,
    }
}

/// Compares what was served for each query with the oracle.
fn check_bodies(
    observed: &[(String, Vec<u8>)],
    cfg: &WatDivConfig,
    ops_per_query: u64,
    failed: &mut u64,
    complaints: &mut Vec<String>,
) {
    let expected =
        oracle::pinned("watdiv_serve", cfg.seed, cfg.scale).unwrap_or_else(|| expectation(cfg));
    for (name, body) in observed {
        let want = expected
            .get("queries")
            .and_then(|q| q.get(name))
            .and_then(RowDigest::from_json);
        let got = std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(oracle::digest_sparql_json);
        if want.is_none() || got.as_ref().ok() != want.as_ref() {
            *failed += ops_per_query;
            complaints.push(format!("{name}: served {got:?}, oracle {want:?}"));
        }
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let started = Instant::now();
    let cfg = WatDivConfig {
        scale: args.sizes().watdiv,
        seed: args.seed,
    };
    let mut setups = Setups::default();
    let served = setups.run(args.sizes().setups, || serve(&cfg));
    let mut queries = served_mix();
    Rng::new(args.seed).shuffle(&mut queries);
    let paths: Vec<String> = queries
        .iter()
        .map(|q| http::sparql_path(&q.sparql))
        .collect();
    let addr = served.server.addr();
    if args.trace {
        return traced(args, &cfg, served, &queries, &paths, started);
    }

    // Warm-up pass; the bodies it returns are what every timed request
    // must repeat byte for byte (results are deterministic).
    let mut warm_up_failed = false;
    let observed: Vec<(String, Vec<u8>)> = queries
        .iter()
        .zip(&paths)
        .map(|(q, path)| {
            let resp = http::get(addr, path);
            warm_up_failed |= resp.status != 200;
            (q.name.clone(), resp.body)
        })
        .collect();
    let mut failed = u64::from(warm_up_failed);

    let log = OpLog::measure(args.seconds, || {
        let t = Instant::now();
        let mut wrong = false;
        for (path, (_, body)) in paths.iter().zip(&observed) {
            let resp = http::get(addr, path);
            wrong |= resp.status != 200 || resp.body != *body;
        }
        failed += u64::from(wrong);
        t.elapsed().as_secs_f64() * 1e3
    });

    let mut metrics = MetricSet::default();
    let measured = end_to_end(&mut metrics, &log, served.resident_bytes, served.triples);
    let triples = served.triples as u64;
    let mut complaints = Vec::new();
    let mut served = served;
    let drain = served.server.shutdown();
    if drain.leaked != 0 {
        failed += drain.leaked;
        complaints.push(format!(
            "server leaked {} in-flight queries at shutdown",
            drain.leaked
        ));
    }
    drop(served);
    drop(setups.run(args.sizes().setups, || serve(&cfg)));
    metrics.set("setup_s", setups.quiet_s());

    check_bodies(&observed, &cfg, log.ops(), &mut failed, &mut complaints);
    Outcome {
        attempted: log.ops() + 1,
        failed,
        metrics,
        samples: measured.samples,
        round_ops_per_s: log.round_rates(),
        tail_percentile: measured.tail.percentile,
        duration_s: started.elapsed().as_secs_f64(),
        triples,
        tracer: None,
        complaints,
    }
}

/// What one traced replay saw besides its spans.
#[derive(Default)]
struct Replayed {
    ms_per_pass: f64,
    requests: u64,
    shed: u64,
    failed: u64,
    bodies: Vec<(String, Vec<u8>)>,
}

/// One client replays the list `passes` times. Each op is the HTTP
/// round trip plus its in-process twin (`request().run()` then
/// `to_sparql_json`), whose bytes must equal the served body; the twin
/// is what `server.overhead_p50_us` subtracts.
fn replay(
    addr: SocketAddr,
    shared: &SharedParj,
    queries: &[NamedQuery],
    paths: &[String],
    passes: usize,
    tracer: &mut Tracer,
    counters: &mut ReadCounters,
) -> Replayed {
    let mut r = Replayed::default();
    let t = Instant::now();
    for pass in 0..passes {
        r.bodies.clear();
        for (i, (q, path)) in queries.iter().zip(paths).enumerate() {
            let id = (pass * queries.len() + i) as u64;
            let resp = tracer.span(id, HTTP, Tracer::ROOT, || http::get(addr, path));
            tracer.span(id, profile::PARSE_QUERY, Tracer::ROOT, || {
                black_box(parse_query(&q.sparql)).is_ok()
            });
            let form = &path.as_bytes()["/sparql?".len()..];
            tracer.span(id, URLENCODED, Tracer::ROOT, || {
                black_box(parj_server::http::parse_urlencoded(form)).is_ok()
            });
            let outcome = profile::traced_request(tracer, counters, id, Tracer::ROOT, || {
                shared.request(&q.sparql).run()
            });
            let twin = outcome
                .ok()
                .map(|o| tracer.span(id, SERIALIZE, Tracer::ROOT, || to_sparql_json(&o)));
            r.requests += 1;
            r.shed += u64::from(resp.status == 429);
            r.failed += u64::from(
                resp.status != 200 || twin.map(String::into_bytes).as_ref() != Some(&resp.body),
            );
            r.bodies.push((q.name.clone(), resp.body));
        }
    }
    r.ms_per_pass = t.elapsed().as_secs_f64() * 1e3 / passes as f64;
    r
}

/// A short in-process replay against a cache-enabled engine (the cache
/// is off by default, so the end-to-end runs never touch it): one cold
/// rows pass, one silent pass (same plans, different result key), then
/// warm rows passes.
fn emit_cache_metrics(m: &mut MetricSet, cfg: &WatDivConfig, queries: &[NamedQuery]) {
    let mut cached = engine(
        cfg,
        EngineConfig {
            cache: true,
            ..bench_config()
        },
    );
    let (mut hits, mut requests) = (0u64, 0u64);
    let (mut hit_us, mut lookup_us) = (Vec::new(), Vec::new());
    let (mut cold_optimize, mut plan_hit_optimize) = (Vec::new(), Vec::new());
    for pass in 0..5 {
        for q in queries {
            let req = cached.request(&q.sparql);
            let t = Instant::now();
            let outcome = if pass == 1 {
                req.count_only().run()
            } else {
                req.run()
            };
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            let Ok(outcome) = outcome else { continue };
            requests += 1;
            let s = &outcome.stats;
            lookup_us.push(s.phases.cache_lookup_micros as f64);
            match s.cache {
                CacheStatus::ResultHit => {
                    hits += 1;
                    hit_us.push(wall_us);
                }
                CacheStatus::PlanHit => plan_hit_optimize.push(s.phases.optimize_micros as f64),
                CacheStatus::Miss => cold_optimize.push(s.phases.optimize_micros as f64),
                CacheStatus::Off | CacheStatus::Bypassed => {}
            }
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    m.set(
        "cache.result_hit_ratio",
        ratio(hits as f64, requests as f64),
    );
    m.set(
        "cache.result_hit_p50_us",
        if hit_us.is_empty() {
            0.0
        } else {
            timing::median(&hit_us)
        },
    );
    m.set("cache.lookup_us", mean(&lookup_us));
    m.set(
        "cache.plan_hit_saving_us",
        mean(&cold_optimize) - mean(&plan_hit_optimize),
    );
}

fn traced(
    args: &RunArgs,
    cfg: &WatDivConfig,
    mut served: Served,
    queries: &[NamedQuery],
    paths: &[String],
    started: Instant,
) -> Outcome {
    let passes = ((2.0 * args.seconds) as usize).max(3);
    let mut m = MetricSet::default();
    profile::emit_build_metrics(&mut m, watdiv::generate_builder(cfg));

    let addr = served.server.addr();
    replay(
        addr,
        &served.shared,
        queries,
        paths,
        1,
        &mut Tracer::new(false),
        &mut ReadCounters::default(),
    );
    let untraced = replay(
        addr,
        &served.shared,
        queries,
        paths,
        passes,
        &mut Tracer::new(false),
        &mut ReadCounters::default(),
    );
    let mut tracer = Tracer::new(true);
    let mut counters = ReadCounters::default();
    let seen = replay(
        addr,
        &served.shared,
        queries,
        paths,
        passes,
        &mut tracer,
        &mut counters,
    );
    m.set(
        "trace.overhead_pct",
        (seen.ms_per_pass / untraced.ms_per_pass - 1.0) * 100.0,
    );
    profile::emit_read_metrics(&mut m, &tracer, &counters, HTTP, passes);

    // HTTP latency minus the same op done in process.
    let twin: Vec<f64> = tracer
        .durations(profile::REQUEST)
        .iter()
        .zip(tracer.durations(SERIALIZE))
        .map(|(request, serialize)| request + serialize)
        .collect();
    m.set(
        "server.overhead_p50_us",
        (timing::median(&tracer.durations(HTTP)) - timing::median(&twin)) / 1e3,
    );
    m.set(
        "server.serialize_ns_per_row",
        ratio(tracer.total_ns(SERIALIZE), counters.rows as f64),
    );
    m.set(
        "server.urlencoded_parse_ns",
        timing::median(&tracer.durations(URLENCODED)),
    );
    m.set(
        "server.shed_ratio",
        ratio(
            (seen.shed + untraced.shed) as f64,
            (seen.requests + untraced.requests) as f64,
        ),
    );
    m.set("server.inflight_after", served.server.inflight() as f64);
    let drain = served.server.shutdown();
    let triples = served.triples as u64;
    drop(served);

    emit_cache_metrics(&mut m, cfg, queries);
    let mut local = engine(cfg, bench_config());
    profile::emit_variant_metrics(&mut m, &mut local, &mut |c| engine(cfg, c), queries, passes);
    micro::run(&mut m, local.store(), args.sizes().probes);

    let mut failed = seen.failed + untraced.failed + drain.leaked;
    let mut complaints = Vec::new();
    check_bodies(
        &seen.bodies,
        cfg,
        2 * passes as u64,
        &mut failed,
        &mut complaints,
    );
    Outcome {
        attempted: seen.requests + untraced.requests,
        failed,
        metrics: m,
        samples: seen.requests,
        round_ops_per_s: Vec::new(),
        tail_percentile: 0.0,
        duration_s: started.elapsed().as_secs_f64(),
        triples,
        tracer: Some(tracer),
        complaints,
    }
}
