//! `bulk_load` — load a document of 90 000 LUBM statements (≈7 MB of
//! N-Triples text) from memory.
//!
//! The text is the first 90 000 lines `lubm::write_ntriples` produces
//! for the seed, cut off there because whole universities differ in
//! size by a third: LUBM-6 documents ranged from 81 k to 96 k triples
//! between seeds, and load times with them. Each op builds a fresh
//! engine, `load_ntriples_str`s the document and
//! `finalize`s. `parj-rio` parsing, `parj-dict` encoding, `parj-store`
//! sort/CSR build and block packing, and `parj-optimizer` statistics do
//! all the work; `parj-join` does none. It is the write side of the
//! codec whose read side `lubm_scan` measures, so a probe speed-up
//! bought with a costlier pack shows here.

use std::hint::black_box;
use std::time::Instant;

use parj_core::{OnParseError, Parj, ParjError, Stats};
use parj_datagen::lubm::{self, LubmConfig};
use parj_store::StoreBuilder;

use crate::json::{self, Value};
use crate::metrics::{ratio, MetricSet};
use crate::run::{end_to_end, OpLog, Outcome, RunArgs, Setups, Sizes};
use crate::trace::Tracer;
use crate::{bench_config, bench_threads, micro, oracle, profile, timing};

const PARSE: &str = "rio.parse_chunks";
const DRAIN: &str = "rio.drain_triples";
const ENCODE: &str = "store.add_triples_parallel";
const BUILD: &str = "store.build_with";
const COMPRESS: &str = "store.compress_values";
const STATS: &str = "optimizer.stats_build";
const STEPWISE: &str = "load.stepwise";
const OPAQUE: &str = "load.opaque";

/// What is loaded: the first `statements` statements the generator
/// emits for `cfg` (all of them, should it emit fewer).
#[derive(Debug, Clone, Copy)]
pub struct Document {
    pub cfg: LubmConfig,
    pub statements: usize,
}

impl Document {
    pub fn new(sizes: Sizes, seed: u64) -> Self {
        Document {
            cfg: LubmConfig {
                universities: sizes.load,
                seed,
            },
            statements: sizes.load_statements,
        }
    }

    /// The N-Triples text, one statement per line.
    fn text(&self) -> String {
        let mut text = Vec::new();
        lubm::write_ntriples(&self.cfg, &mut text).expect("writing to memory cannot fail");
        let mut text = String::from_utf8(text).expect("N-Triples output is UTF-8");
        if let Some((end, _)) = text.match_indices('\n').nth(self.statements - 1) {
            text.truncate(end + 1);
        }
        text
    }

    /// Oracle expectation: triple count and the ten LUBM counts, from
    /// the baseline engine on a raw store built from the generator's
    /// terms — not from the text, so the round trip through the parser
    /// is covered too.
    pub fn expectation(&self) -> Value {
        let mut builder = StoreBuilder::new();
        let mut left = self.statements;
        lubm::generate(&self.cfg, |s, p, o| {
            if left > 0 {
                left -= 1;
                builder.add_term_triple(&s, &p, &o);
            }
        });
        let store = builder.build();
        let counts = lubm::queries()
            .into_iter()
            .map(|q| (q.name, json::count(oracle::count(&store, &q.sparql))));
        json::obj([
            ("scale", json::count(self.cfg.universities as u64)),
            ("statements", json::count(self.statements as u64)),
            ("triples", json::count(store.num_triples() as u64)),
            ("counts", json::obj(counts)),
        ])
    }

    /// Pinned expectation when this is the blessed document, else on
    /// the fly.
    fn expected(&self) -> Value {
        oracle::pinned("bulk_load", self.cfg.seed, self.cfg.universities)
            .filter(|v| v.get("statements").and_then(Value::as_u64) == Some(self.statements as u64))
            .unwrap_or_else(|| self.expectation())
    }
}

/// One op: fresh engine, load the document, finalize.
fn load(text: &str, load_threads: usize) -> Result<Parj, ParjError> {
    let mut engine = Parj::builder()
        .threads(bench_threads())
        .load_threads(load_threads)
        .build();
    engine.load_ntriples_str(text)?;
    engine.finalize();
    Ok(engine)
}

/// Checks a loaded engine against the oracle: triple count and the ten
/// LUBM counts.
fn check(
    engine: &mut Parj,
    doc: &Document,
    ops: u64,
    failed: &mut u64,
    complaints: &mut Vec<String>,
) {
    let want = doc.expected();
    let triples = engine.num_triples() as u64;
    if want.get("triples").and_then(|t| t.as_u64()) != Some(triples) {
        *failed += ops;
        complaints.push(format!(
            "loaded {triples} triples, oracle {:?}",
            want.get("triples")
        ));
    }
    let observed: Vec<(String, Option<u64>)> = lubm::queries()
        .into_iter()
        .map(|q| {
            let count = engine
                .request(&q.sparql)
                .count_only()
                .run()
                .ok()
                .map(|o| o.count);
            (q.name, count)
        })
        .collect();
    profile::check_counts(&observed, &want, ops, failed, complaints);
}

pub fn run(args: &RunArgs) -> Outcome {
    let started = Instant::now();
    let doc = Document::new(args.sizes(), args.seed);
    let mut setups = Setups::default();
    let text = setups.run(args.sizes().setups, || doc.text());
    if args.trace {
        return traced(args, &doc, &text, started);
    }
    let (mut failed, mut complaints) = (0u64, Vec::new());

    // Warm-up load; it also fixes the triple count every load must hit.
    let mut warm = load(&text, bench_threads()).expect("the generated document loads");
    let triples = warm.num_triples();

    // Throughput is over the time spent loading: the drop of the
    // previous engine (one resident at a time) is not part of a load.
    let mut engine = Some(warm);
    let log = OpLog::measure(args.seconds, || {
        drop(engine.take());
        let (loaded, ms) = timing::time_ms(|| load(&text, bench_threads()));
        let mut loaded = loaded.expect("the generated document loads");
        failed += u64::from(loaded.num_triples() != triples);
        engine = Some(loaded);
        ms
    });
    let mut engine = engine.expect("the window ran at least one load");

    let mut metrics = MetricSet::default();
    let measured = end_to_end(
        &mut metrics,
        &log,
        engine.store().total_memory_bytes(),
        triples,
    );
    drop(setups.run(args.sizes().setups, || doc.text()));
    metrics.set("setup_s", setups.quiet_s());
    check(&mut engine, &doc, log.ops(), &mut failed, &mut complaints);
    Outcome {
        attempted: log.ops() + 1,
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

/// Chunks the engine's loader cuts per load thread.
const CHUNKS_PER_THREAD: usize = 4;

/// The load taken apart into the public calls `parj-core`'s loader and
/// `finalize` make, on one thread, one span per layer: chunked parse
/// (`parj-rio`), dictionary encode + pair routing
/// (`StoreBuilder::add_triples_parallel`), CSR build, block packing,
/// optimizer statistics. Returns the store and the wall time in ms.
fn stepwise(text: &str, id: u64, tracer: &mut Tracer) -> (parj_core::TripleStore, f64) {
    let cfg = bench_config();
    let t = Instant::now();
    let root = tracer.open(id, STEPWISE, Tracer::ROOT);
    // Chunk results are materialized before the policy drain, as the
    // loader does (it parses chunks on several threads).
    let parsed: Vec<_> = tracer.span(id, PARSE, root, || {
        let chunks = parj_rio::split_ntriples(text, CHUNKS_PER_THREAD);
        chunks
            .iter()
            .map(|c| parj_rio::parse_ntriples_chunk(text, c))
            .collect()
    });
    let triples = tracer.span(id, DRAIN, root, || {
        let mut triples = Vec::new();
        parj_rio::drain_triples(parsed.into_iter().flatten(), OnParseError::Abort, |t| {
            triples.push(t)
        })
        .expect("the generated document parses");
        triples
    });
    let builder = tracer.span(id, ENCODE, root, || {
        let per = triples.len().div_ceil(CHUNKS_PER_THREAD).max(1);
        let mut it = triples.into_iter();
        let chunks: Vec<Vec<_>> = (0..CHUNKS_PER_THREAD)
            .map(|_| it.by_ref().take(per).collect())
            .collect();
        let mut builder = StoreBuilder::new();
        builder.add_triples_parallel(chunks, 1);
        builder
    });
    let mut store = tracer.span(id, BUILD, root, || builder.build_with(cfg.store));
    tracer.span(id, COMPRESS, root, || {
        store.compress_values(cfg.compress_min_values)
    });
    tracer.span(id, STATS, root, || {
        black_box(Stats::build_with_buckets(&store, cfg.histogram_buckets))
    });
    tracer.close(root);
    (store, t.elapsed().as_secs_f64() * 1e3)
}

fn traced(args: &RunArgs, doc: &Document, text: &str, started: Instant) -> Outcome {
    // Single loads of this size differ by ±20 %; every figure below is a
    // median over `reps` loads.
    let reps = ((args.seconds / 2.0) as usize).max(1);
    let mut m = MetricSet::default();
    let (mut failed, mut complaints) = (0u64, Vec::new());
    let mut tracer = Tracer::new(true);

    // Warm-up load (first-touch page faults are not the loader's cost),
    // then the opaque op as the end-to-end run times it.
    let mut engine = load(text, bench_threads()).expect("the generated document loads");
    let triples = engine.num_triples();
    let mut load_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(engine);
        let (loaded, ms) = timing::time_ms(|| load(text, bench_threads()));
        engine = loaded.expect("the generated document loads");
        load_ms.push(ms);
    }
    m.set(
        "load.triples_per_s",
        triples as f64 / (timing::median(&load_ms) / 1e3),
    );
    check(&mut engine, doc, 1, &mut failed, &mut complaints);
    drop(engine);

    // Interleaved per repetition, so allocator and machine drift hit
    // all three alike: the same op on one load thread (its two public
    // calls in a span each — the stepwise path runs the loader's calls
    // serially, so this is the wall it should add up to), the stepwise
    // load with a disabled tracer, and the stepwise load traced.
    let (mut untraced_ms, mut traced_ms) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut store = None;
    for rep in 0..reps as u64 {
        let mut serial = Parj::builder()
            .threads(bench_threads())
            .load_threads(1)
            .build();
        let root = tracer.open(2 * rep, OPAQUE, Tracer::ROOT);
        let loaded = tracer.span(2 * rep, "core.load_ntriples_str", root, || {
            serial.load_ntriples_str(text)
        });
        tracer.span(2 * rep, "core.finalize", root, || serial.finalize());
        tracer.close(root);
        if loaded.is_err() || serial.num_triples() != triples {
            failed += 1;
            complaints.push(format!(
                "single-thread load: {loaded:?}, {} triples, expected {triples}",
                serial.num_triples()
            ));
        }
        drop(serial);
        // Whichever stepwise load runs second inherits a warmer heap, so
        // the two take turns going first.
        for traced in [rep % 2 == 0, rep % 2 != 0] {
            drop(store.take());
            let (built, ms) = if traced {
                stepwise(text, 2 * rep + 1, &mut tracer)
            } else {
                stepwise(text, 0, &mut Tracer::new(false))
            };
            if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(ms);
            store = Some(built);
        }
    }
    let store = store.expect("reps >= 1");
    m.set(
        "trace.overhead_pct",
        (timing::median(&traced_ms) / timing::median(&untraced_ms) - 1.0) * 100.0,
    );

    let layers = timing::median(&tracer.children_ns(STEPWISE));
    m.set(
        "trace.coverage",
        ratio(layers, timing::median(&tracer.durations(OPAQUE))),
    );
    let median_ns = |name| timing::median(&tracer.durations(name));
    let parse_ns = median_ns(PARSE) + median_ns(DRAIN);
    m.set("rio.parse_ns_per_triple", ratio(parse_ns, triples as f64));
    m.set(
        "rio.parse_mb_per_s",
        ratio(text.len() as f64 / 1e6, parse_ns / 1e9),
    );
    m.set("rio.parse_share", ratio(parse_ns, layers));
    m.set("dict.encode_share", ratio(median_ns(ENCODE), layers));
    m.set(
        "store.build_share",
        ratio(median_ns(BUILD) + median_ns(COMPRESS), layers),
    );
    m.set("store.build_ms", median_ns(BUILD) / 1e6);
    m.set("store.compress_ms", median_ns(COMPRESS) / 1e6);
    m.set("optimizer.stats_build_ms", median_ns(STATS) / 1e6);
    if store.num_triples() != triples {
        failed += 1;
        complaints.push(format!(
            "stepwise load built {} triples, engine {triples}",
            store.num_triples()
        ));
    }
    micro::run(&mut m, &store, args.sizes().probes);
    m.set("sync.lock_wait_us_total", profile::lock_wait_us());

    let loads = 1 + 4 * reps as u64;
    Outcome {
        attempted: loads,
        failed,
        metrics: m,
        samples: loads,
        round_ops_per_s: Vec::new(),
        tail_percentile: 0.0,
        duration_s: started.elapsed().as_secs_f64(),
        triples: triples as u64,
        tracer: Some(tracer),
        complaints,
    }
}
