//! What the workloads share beyond the window arithmetic of `run.rs`:
//! one traced request, the counters read off `QueryRunStats`, the
//! per-layer arithmetic over the recorded spans, the engine-vs-engine
//! pass experiments (packed vs raw, metrics on vs off, one thread vs
//! two), the stepwise store build, and the count check against the
//! oracle.

use std::time::Instant;

use parj_core::{EngineConfig, Parj, ParjError, QueryOutcome, RunOverrides, SearchStats};
use parj_datagen::NamedQuery;

use crate::metrics::{ratio, MetricSet};
use crate::timing;
use crate::trace::{Open, Tracer};

/// Span names. `REQUEST` is the opaque `request().run()` call; the
/// phase names are its reported children.
pub const REQUEST: &str = "core.request";
pub const PARSE: &str = "sparql.parse";
pub const TRANSLATE: &str = "core.translate";
pub const CACHE_LOOKUP: &str = "cache.lookup";
pub const OPTIMIZE: &str = "optimizer.optimize";
pub const EXECUTE: &str = "join.execute";
pub const DECODE: &str = "core.decode";
/// A direct `parj_sparql::parse_query` call (nanosecond resolution; the
/// reported `PARSE` child is whole microseconds).
pub const PARSE_QUERY: &str = "sparql.parse_query";

/// Counts read off the stats each traced request returned.
#[derive(Debug, Default, Clone)]
pub struct ReadCounters {
    pub requests: u64,
    pub rows: u64,
    pub search: SearchStats,
}

/// Runs one request inside a [`REQUEST`] span, lays its reported phases
/// out as children and accumulates its counters.
pub fn traced_request(
    tracer: &mut Tracer,
    counters: &mut ReadCounters,
    request_id: u64,
    parent: Open,
    run: impl FnOnce() -> Result<QueryOutcome, ParjError>,
) -> Result<QueryOutcome, ParjError> {
    let span = tracer.open(request_id, REQUEST, parent);
    let result = run();
    tracer.close(span);
    if let Ok(outcome) = &result {
        let s = &outcome.stats;
        tracer.reported_children(
            span,
            &[
                (PARSE, s.phases.parse_micros),
                (TRANSLATE, s.phases.translate_micros),
                (CACHE_LOOKUP, s.phases.cache_lookup_micros),
                (OPTIMIZE, s.phases.optimize_micros),
                (EXECUTE, s.exec_micros),
                (DECODE, s.decode_micros),
            ],
        );
        counters.requests += 1;
        counters.rows += s.rows;
        counters.search.merge(&s.search);
    }
    result
}

fn p50_us(ns: &[f64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        timing::median(ns) / 1e3
    }
}

/// Per-layer read-path metrics from the spans of a traced replay.
/// `wall` names the span every share is taken against: the opaque call
/// a client waits on ([`REQUEST`] in process, the HTTP round trip when
/// served).
pub fn emit_read_metrics(
    m: &mut MetricSet,
    tracer: &Tracer,
    counters: &ReadCounters,
    wall: &'static str,
    passes: usize,
) {
    let wall_ns = tracer.total_ns(wall);
    let exec_ns = tracer.total_ns(EXECUTE);
    let decode_ns = tracer.total_ns(DECODE);
    let prepare_ns = [PARSE, TRANSLATE, CACHE_LOOKUP, OPTIMIZE]
        .iter()
        .map(|n| tracer.total_ns(n))
        .sum();
    let s = &counters.search;

    m.set(
        "sparql.parse_p50_us",
        p50_us(&tracer.durations(PARSE_QUERY)),
    );
    m.set("sparql.parse_share", ratio(tracer.total_ns(PARSE), wall_ns));
    m.set(
        "core.translate_p50_us",
        p50_us(&tracer.durations(TRANSLATE)),
    );
    m.set("core.prepare_share", ratio(prepare_ns, wall_ns));
    m.set(
        "core.decode_ns_per_row",
        ratio(decode_ns, counters.rows as f64),
    );
    m.set("core.decode_share", ratio(decode_ns, wall_ns));
    let optimize = tracer.durations(OPTIMIZE);
    m.set("optimizer.optimize_p50_us", p50_us(&optimize));
    m.set(
        "optimizer.optimize_max_us",
        optimize.iter().copied().fold(0.0, f64::max) / 1e3,
    );
    m.set("join.exec_ms_per_pass", ratio(exec_ns / 1e6, passes as f64));
    m.set("join.exec_share", ratio(exec_ns, wall_ns));
    m.set(
        "join.ns_per_search",
        ratio(exec_ns, s.total_searches() as f64),
    );
    m.set(
        "join.words_touched_per_row",
        ratio(s.words_touched() as f64, counters.rows as f64),
    );
    let searches = s.total_searches() as f64;
    m.set(
        "join.sequential_share",
        ratio(s.sequential_searches as f64, searches),
    );
    m.set(
        "join.binary_share",
        ratio(s.binary_searches as f64, searches),
    );
    m.set("join.index_share", ratio(s.index_lookups as f64, searches));
    m.set(
        "join.group_probes_per_pass",
        ratio(s.group_probes as f64, passes as f64),
    );
    m.set("trace.coverage", tracer.coverage(REQUEST));
}

/// Median wall time (ms) of `passes` silent-mode passes over `queries`,
/// after one warm-up pass.
pub fn pass_ms(
    engine: &mut Parj,
    queries: &[NamedQuery],
    passes: usize,
    over: &RunOverrides,
) -> f64 {
    let one_pass = |engine: &mut Parj| {
        let t = Instant::now();
        for q in queries {
            let outcome = engine.request(&q.sparql).overrides(over).count_only().run();
            std::hint::black_box(outcome.expect("benchmark queries run").count);
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    one_pass(engine);
    let times: Vec<f64> = (0..passes.max(1)).map(|_| one_pass(engine)).collect();
    timing::median(&times)
}

/// Max ÷ mean per-thread load when `threads` workers pull the query's
/// driver morsels off the shared cursor in order, each morsel going to
/// the least-loaded worker. Exact: `morsel_loads` counts work units
/// (rows emitted + words touched), not time — Fig. 2's shape without
/// the cores.
pub fn makespan_ratio(engine: &mut Parj, queries: &[NamedQuery], threads: usize) -> f64 {
    let (mut makespan, mut mean) = (0.0, 0.0);
    for q in queries {
        let plans = engine
            .morsel_loads(&q.sparql, &RunOverrides::threads(threads))
            .expect("benchmark queries plan");
        for morsels in plans {
            let mut load = vec![0u64; threads];
            for w in morsels {
                *load.iter_mut().min().expect("threads >= 1") += w;
            }
            makespan += *load.iter().max().expect("threads >= 1") as f64;
            mean += load.iter().sum::<u64>() as f64 / threads as f64;
        }
    }
    ratio(makespan, mean)
}

/// The engine-vs-engine experiments every query workload runs on its
/// own data and query list. `build` makes a fresh engine for a config
/// (stores are not `Clone`, so each variant regenerates its store).
pub fn emit_variant_metrics(
    m: &mut MetricSet,
    engine: &mut Parj,
    build: &mut dyn FnMut(EngineConfig) -> Parj,
    queries: &[NamedQuery],
    passes: usize,
) {
    let base = crate::bench_config();
    let default = RunOverrides::default();
    let packed = pass_ms(engine, queries, passes, &default);

    // The parallel path on an engine of its own: the end-to-end config
    // may be single-threaded (`bench_threads`), and then owns no pool.
    if crate::nproc() >= 2 {
        let single = if base.threads == 1 {
            packed
        } else {
            pass_ms(engine, queries, passes, &RunOverrides::threads(1))
        };
        let mut parallel = build(EngineConfig { threads: 2, ..base });
        let double = pass_ms(&mut parallel, queries, passes, &default);
        m.set("join.speedup_2t", ratio(single, double));
        let pool = parallel.pool_stats();
        m.set("join.pool_jobs", pool.map_or(0.0, |p| p.jobs as f64));
        m.set(
            "join.helper_joins",
            pool.map_or(0.0, |p| p.helper_joins as f64),
        );
    }
    m.set("join.makespan_ratio", makespan_ratio(engine, queries, 2));

    let mut raw = build(EngineConfig {
        compress_replicas: false,
        ..base
    });
    m.set(
        "store.packed_over_raw_pass_ratio",
        ratio(packed, pass_ms(&mut raw, queries, passes, &default)),
    );
    drop(raw);

    let mut quiet = build(EngineConfig {
        record_metrics: false,
        ..base
    });
    let off = pass_ms(&mut quiet, queries, passes, &default);
    m.set(
        "obs.record_overhead_pct",
        (ratio(packed, off) - 1.0) * 100.0,
    );
    drop(quiet);

    let t = Instant::now();
    std::hint::black_box(engine.metrics_snapshot());
    m.set("obs.snapshot_us", t.elapsed().as_secs_f64() * 1e6);
    m.set("sync.lock_wait_us_total", lock_wait_us());
}

/// Microseconds threads spent blocked on ordered locks, all levels,
/// process-wide (what `parj_lock_wait_micros` publishes).
pub fn lock_wait_us() -> f64 {
    parj_sync::lock_wait_totals()
        .iter()
        .map(|&(_, us)| us as f64)
        .sum()
}

/// Builds `builder`'s store step by step, timing the steps `finalize`
/// and `Parj::from_store` run fused: CSR build, block packing,
/// optimizer statistics.
pub fn emit_build_metrics(m: &mut MetricSet, builder: parj_store::StoreBuilder) {
    let cfg = crate::bench_config();
    let (mut store, build_ms) = timing::time_ms(|| builder.build_with(cfg.store));
    m.set("store.build_ms", build_ms);
    m.set(
        "store.compress_ms",
        timing::time_ms(|| store.compress_values(cfg.compress_min_values)).1,
    );
    let (stats, stats_ms) =
        timing::time_ms(|| parj_core::Stats::build_with_buckets(&store, cfg.histogram_buckets));
    std::hint::black_box(stats);
    m.set("optimizer.stats_build_ms", stats_ms);
}

/// Compares the count the engine gave for each query with the oracle's
/// `counts` object; every op of a disagreeing query is a failed op.
pub fn check_counts(
    observed: &[(String, Option<u64>)],
    expected: &crate::json::Value,
    ops_per_query: u64,
    failed: &mut u64,
    complaints: &mut Vec<String>,
) {
    for (name, got) in observed {
        let want = expected
            .get("counts")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64());
        if want.is_none() || *got != want {
            *failed += ops_per_query;
            complaints.push(format!("{name}: engine {got:?}, oracle {want:?}"));
        }
    }
}
