//! `lubm_scan` — LUBM1–LUBM10 in silent mode over a LUBM-60 store.
//!
//! One in-process client cycles the ten queries through
//! `engine.request(q).count_only().run()`. The store (≈0.9 M triples)
//! is larger than L2 and about LLC size; `parj-join`'s probe loops and
//! `parj-store`'s block decode are nearly all of the wall time, while
//! server, SPARQL parsing, optimizer and dictionary do almost nothing.

use std::hint::black_box;
use std::time::Instant;

use parj_core::{parse_query, Parj};
use parj_datagen::lubm::{self, LubmConfig};
use parj_datagen::NamedQuery;

use crate::json::{self, Value};
use crate::metrics::MetricSet;
use crate::profile::{self, ReadCounters};
use crate::run::{end_to_end, OpLog, Outcome, RunArgs, Setups};
use crate::trace::Tracer;
use crate::{bench_config, micro, oracle, Rng};

/// Oracle expectation for LUBM data: triple count and one solution
/// count per query, from the baseline engine on a raw store.
pub fn expectation(cfg: &LubmConfig) -> Value {
    let store = lubm::generate_store(cfg);
    let counts = lubm::queries()
        .into_iter()
        .map(|q| (q.name, json::count(oracle::count(&store, &q.sparql))));
    json::obj([
        ("scale", json::count(cfg.universities as u64)),
        ("triples", json::count(store.num_triples() as u64)),
        ("counts", json::obj(counts)),
    ])
}

/// Pinned expectation when this is the blessed run, else on the fly.
fn expected(cfg: &LubmConfig) -> Value {
    oracle::pinned("lubm_scan", cfg.seed, cfg.universities).unwrap_or_else(|| expectation(cfg))
}

fn count_of(engine: &mut Parj, q: &NamedQuery) -> Option<u64> {
    engine
        .request(&q.sparql)
        .count_only()
        .run()
        .ok()
        .map(|o| o.count)
}

pub fn run(args: &RunArgs) -> Outcome {
    let started = Instant::now();
    let cfg = LubmConfig {
        universities: args.sizes().lubm,
        seed: args.seed,
    };
    let setup = || Parj::from_store(lubm::generate_store(&cfg), bench_config());
    let mut setups = Setups::default();
    let mut engine = setups.run(args.sizes().setups, setup);
    let mut queries = lubm::queries();
    Rng::new(args.seed).shuffle(&mut queries);
    if args.trace {
        return traced(args, &cfg, engine, &queries, started);
    }

    // Warm-up pass; it also fixes the answer every timed op must repeat.
    let observed: Vec<(String, Option<u64>)> = queries
        .iter()
        .map(|q| (q.name.clone(), count_of(&mut engine, q)))
        .collect();

    // One op is one pass over the ten queries: the mix is what a client
    // of this workload repeats, and a pass time (a sum over the mix) is
    // steady where the median of ten very different query times falls
    // in the gap between two of them.
    let mut failed = 0u64;
    let log = OpLog::measure(args.seconds, || {
        let t = Instant::now();
        let mut wrong = false;
        for (q, (_, want)) in queries.iter().zip(&observed) {
            let got = count_of(&mut engine, q);
            wrong |= got.is_none() || got != *want;
        }
        failed += u64::from(wrong);
        t.elapsed().as_secs_f64() * 1e3
    });
    let passes = log.ops();

    let mut metrics = MetricSet::default();
    let triples = engine.num_triples();
    let measured = end_to_end(
        &mut metrics,
        &log,
        engine.store().total_memory_bytes(),
        triples,
    );
    drop(engine);
    drop(setups.run(args.sizes().setups, setup));
    metrics.set("setup_s", setups.quiet_s());

    let mut complaints = Vec::new();
    profile::check_counts(
        &observed,
        &expected(&cfg),
        passes,
        &mut failed,
        &mut complaints,
    );
    Outcome {
        attempted: passes,
        failed,
        metrics,
        samples: measured.samples,
        round_ops_per_s: log.round_rates(),
        tail_percentile: measured.tail.percentile,
        duration_s: started.elapsed().as_secs_f64(),
        triples: triples as u64,
        tracer: None,
        complaints,
    }
}

/// Replays `passes` passes through `tracer`; returns ms per pass and
/// the last count seen per query.
fn replay(
    engine: &mut Parj,
    queries: &[NamedQuery],
    passes: usize,
    tracer: &mut Tracer,
    counters: &mut ReadCounters,
) -> (f64, Vec<(String, Option<u64>)>) {
    let mut seen = Vec::new();
    let t = Instant::now();
    for pass in 0..passes {
        seen.clear();
        for (i, q) in queries.iter().enumerate() {
            let id = (pass * queries.len() + i) as u64;
            tracer.span(id, profile::PARSE_QUERY, Tracer::ROOT, || {
                black_box(parse_query(&q.sparql)).is_ok()
            });
            let outcome = profile::traced_request(tracer, counters, id, Tracer::ROOT, || {
                engine.request(&q.sparql).count_only().run()
            });
            seen.push((q.name.clone(), outcome.ok().map(|o| o.count)));
        }
    }
    (t.elapsed().as_secs_f64() * 1e3 / passes as f64, seen)
}

fn traced(
    args: &RunArgs,
    cfg: &LubmConfig,
    mut engine: Parj,
    queries: &[NamedQuery],
    started: Instant,
) -> Outcome {
    let passes = ((0.8 * args.seconds) as usize).max(3);
    let mut m = MetricSet::default();
    profile::emit_build_metrics(&mut m, lubm::generate_builder(cfg));

    // Same replay twice — a disabled tracer, then the real one — after a
    // warm-up pass so neither side pays the cold start.
    replay(
        &mut engine,
        queries,
        1,
        &mut Tracer::new(false),
        &mut ReadCounters::default(),
    );
    let (untraced_ms, _) = replay(
        &mut engine,
        queries,
        passes,
        &mut Tracer::new(false),
        &mut ReadCounters::default(),
    );
    let mut tracer = Tracer::new(true);
    let mut counters = ReadCounters::default();
    let (traced_ms, observed) = replay(&mut engine, queries, passes, &mut tracer, &mut counters);
    m.set(
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    profile::emit_read_metrics(&mut m, &tracer, &counters, profile::REQUEST, passes);
    profile::emit_variant_metrics(
        &mut m,
        &mut engine,
        &mut |c| Parj::from_store(lubm::generate_store(cfg), c),
        queries,
        passes,
    );
    micro::run(&mut m, engine.store(), args.sizes().probes);

    let attempted = (2 * passes * queries.len()) as u64;
    let (mut failed, mut complaints) = (0, Vec::new());
    profile::check_counts(
        &observed,
        &expected(cfg),
        2 * passes as u64,
        &mut failed,
        &mut complaints,
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
        samples: counters.requests,
        round_ops_per_s: Vec::new(),
        tail_percentile: 0.0,
        duration_s: started.elapsed().as_secs_f64(),
        triples: engine.num_triples() as u64,
        tracer: Some(tracer),
        complaints,
    }
}
