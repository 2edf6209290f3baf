//! `mutate_read` — writes and reads interleaved on a LUBM-60 base.
//!
//! One client runs the deterministic cycle `W R R R R` against a
//! `SharedParj`: `W` is one `mutate()` batch of 100 ops on two
//! predicates (`takesCourse`, `advisor`) — 50 fresh inserts plus the 50
//! triples inserted `LAG` batches earlier, FIFO, so the visible size is
//! steady — and the four `R` are the `count_only` LUBM queries whose
//! plans probe those predicates. The default compaction threshold
//! stays, so the resident delta grows and is compacted inline.
//!
//! It uses `parj-store`/`parj-join` the other way round from
//! `lubm_scan`: merged `ReplicaView` probes and sorted-run merges
//! instead of clean CSR probes. A read gain paid for by writes or
//! compaction stalls (or the reverse) shows here. One client and no
//! timers: the op list, and every count the engine produces, repeat
//! exactly.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use parj_core::{MutationOutcome, Parj, SharedParj, Term};
use parj_datagen::lubm::{self, LubmConfig};
use parj_datagen::NamedQuery;

use crate::json::{self, Value};
use crate::metrics::{ratio, MetricSet};
use crate::profile::{self, ReadCounters};
use crate::run::{end_to_end, OpLog, Outcome, RunArgs, Setups};
use crate::trace::Tracer;
use crate::{bench_config, micro, oracle, timing, Rng};

/// Queries whose plans probe `takesCourse` / `advisor`.
const READS: [&str; 4] = ["LUBM1", "LUBM7", "LUBM9", "LUBM10"];
/// Fresh inserts per predicate per batch (two predicates: 50 inserts).
const INSERTS_PER_PREDICATE: usize = 25;
/// Batches a triple stays visible before the FIFO deletes it. Long
/// enough that the insert runs cross the default 4096-pair compaction
/// threshold, so later deletes land on compacted data as tombstones.
const LAG: usize = 200;
/// Cycles whose counts are pinned by `bless` (state 0 is the state the
/// timed window starts from).
const PINNED_STATES: usize = 8;

const MUTATE: &str = "core.mutate";
const M_ENCODE: &str = "core.mutate.encode";
const M_APPLY: &str = "core.mutate.apply";
const M_COMPACT: &str = "core.mutate.compact";
const M_INVALIDATE: &str = "core.mutate.invalidate";

type Triple = (Term, Term, Term);

/// One edge predicate the mutator writes: its IRI, the subject/object
/// pools drawn from the base data, and the pairs currently visible.
struct EdgePool {
    predicate: Term,
    subjects: Vec<Term>,
    objects: Vec<Term>,
    present: HashSet<(u32, u32)>,
}

impl EdgePool {
    /// A `(subject, object)` pair that is not visible yet; marks it so.
    fn fresh(&mut self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let pair = (
                rng.below(self.subjects.len()) as u32,
                rng.below(self.objects.len()) as u32,
            );
            if self.present.insert(pair) {
                return pair;
            }
        }
    }

    fn triple(&self, (s, o): (u32, u32)) -> Triple {
        (
            self.subjects[s as usize].clone(),
            self.predicate.clone(),
            self.objects[o as usize].clone(),
        )
    }
}

/// Generates the deterministic write batches for a seed and remembers
/// what is visible, so a from-scratch model of any state can be built.
struct Mutator {
    rng: Rng,
    pools: Vec<EdgePool>,
    /// Inserted batches not yet deleted, oldest first, as
    /// `(pool, pair)`.
    live: VecDeque<Vec<(usize, (u32, u32))>>,
}

impl Mutator {
    fn new(cfg: &LubmConfig) -> Self {
        /// A pool being filled, with the term → index maps of its two
        /// columns.
        struct Filling {
            pool: EdgePool,
            subjects: HashMap<Term, u32>,
            objects: HashMap<Term, u32>,
        }
        fn intern(terms: &mut Vec<Term>, index: &mut HashMap<Term, u32>, t: Term) -> u32 {
            *index.entry(t).or_insert_with_key(|t| {
                terms.push(t.clone());
                terms.len() as u32 - 1
            })
        }
        let mut filling: Vec<Filling> = ["takesCourse", "advisor"]
            .iter()
            .map(|name| Filling {
                pool: EdgePool {
                    predicate: Term::iri(format!("{}{name}", lubm::NS)),
                    subjects: Vec::new(),
                    objects: Vec::new(),
                    present: HashSet::new(),
                },
                subjects: HashMap::new(),
                objects: HashMap::new(),
            })
            .collect();
        lubm::generate(cfg, |s, p, o| {
            if let Some(f) = filling.iter_mut().find(|f| f.pool.predicate == p) {
                let pair = (
                    intern(&mut f.pool.subjects, &mut f.subjects, s),
                    intern(&mut f.pool.objects, &mut f.objects, o),
                );
                f.pool.present.insert(pair);
            }
        });
        Mutator {
            // Decorrelated from the datagen stream, which uses the seed raw.
            rng: Rng::new(cfg.seed ^ 0x6d75_7461_7465),
            pools: filling.into_iter().map(|f| f.pool).collect(),
            live: VecDeque::new(),
        }
    }

    /// The next batch, `(inserts, deletes)`: fresh pairs on every pool,
    /// and the batch inserted `LAG` batches ago once there is one.
    fn next_batch(&mut self) -> (Vec<Triple>, Vec<Triple>) {
        let mut batch = Vec::with_capacity(self.pools.len() * INSERTS_PER_PREDICATE);
        for (p, pool) in self.pools.iter_mut().enumerate() {
            for _ in 0..INSERTS_PER_PREDICATE {
                batch.push((p, pool.fresh(&mut self.rng)));
            }
        }
        let inserts = batch
            .iter()
            .map(|&(p, pair)| self.pools[p].triple(pair))
            .collect();
        self.live.push_back(batch);
        let mut deletes = Vec::new();
        if self.live.len() > LAG {
            for (p, pair) in self.live.pop_front().expect("live is non-empty") {
                self.pools[p].present.remove(&pair);
                deletes.push(self.pools[p].triple(pair));
            }
        }
        (inserts, deletes)
    }

    /// A raw store holding the base data plus everything this mutator
    /// has inserted and not yet deleted: the from-scratch model of the
    /// engine's visible state.
    fn model_store(&self, cfg: &LubmConfig) -> parj_core::TripleStore {
        let mut builder = lubm::generate_builder(cfg);
        for &(p, pair) in self.live.iter().flatten() {
            let (s, pred, o) = self.pools[p].triple(pair);
            builder.add_term_triple(&s, &pred, &o);
        }
        builder.build()
    }
}

fn reads() -> Vec<NamedQuery> {
    lubm::queries()
        .into_iter()
        .filter(|q| READS.contains(&q.name.as_str()))
        .collect()
}

fn model_counts(store: &parj_core::TripleStore, reads: &[NamedQuery]) -> Vec<u64> {
    reads
        .iter()
        .map(|q| oracle::count(store, &q.sparql))
        .collect()
}

fn counts_json(counts: &[u64]) -> Value {
    Value::Arr(counts.iter().map(|&c| json::count(c)).collect())
}

/// Oracle expectation: the read counts in the first `states` states of
/// the timed op list (state 0 = after the warm-up writes, state k =
/// after timed cycle k), each from the baseline engine over a model
/// store rebuilt from scratch.
pub fn expectation(cfg: &LubmConfig, states: usize) -> Value {
    let reads = reads();
    let mut mutator = Mutator::new(cfg);
    for _ in 0..LAG {
        mutator.next_batch();
    }
    let mut sequence = Vec::with_capacity(states);
    for state in 0..states {
        if state > 0 {
            mutator.next_batch();
        }
        sequence.push(counts_json(&model_counts(
            &mutator.model_store(cfg),
            &reads,
        )));
    }
    json::obj([
        ("scale", json::count(cfg.universities as u64)),
        (
            "reads",
            Value::Arr(reads.iter().map(|q| json::string(q.name.clone())).collect()),
        ),
        ("sequence", Value::Arr(sequence)),
    ])
}

/// `bless` pins this many states; other seeds check state 0 only (the
/// end-of-run model check covers the last state on every seed).
pub fn pinned_expectation(cfg: &LubmConfig) -> Value {
    expectation(cfg, PINNED_STATES)
}

/// The engine under test plus what the harness knows about it.
struct Bench {
    shared: SharedParj,
    base_bytes: usize,
    mutator: Mutator,
    reads: Vec<NamedQuery>,
    last_write: MutationOutcome,
}

impl Bench {
    fn write(&mut self) -> Result<MutationOutcome, String> {
        let (inserts, deletes) = self.mutator.next_batch();
        let (n_ins, n_del) = (inserts.len() as u64, deletes.len() as u64);
        let outcome = self
            .shared
            .mutate()
            .insert_all(inserts)
            .delete_all(deletes)
            .run()
            .map_err(|e| format!("mutate failed: {e}"))?;
        self.last_write = outcome;
        if (outcome.inserted, outcome.deleted) != (n_ins, n_del) {
            return Err(format!(
                "batch applied {}+/{}- of {n_ins}+/{n_del}-",
                outcome.inserted, outcome.deleted
            ));
        }
        Ok(outcome)
    }

    fn read(&self, i: usize) -> Option<u64> {
        self.shared
            .request(&self.reads[i].sparql)
            .count_only()
            .run()
            .ok()
            .map(|o| o.count)
    }

    /// End-of-run checks, on every seed: a clean audit, and the last
    /// counts equal both the baseline's and a rebuilt engine's over the
    /// model store.
    fn final_checks(&self, cfg: &LubmConfig, failed: &mut u64, complaints: &mut Vec<String>) {
        let report = self.shared.audit();
        if !report.is_clean() {
            *failed += 1;
            complaints.push(format!("audit after the run: {report:?}"));
        }
        let live: Vec<Option<u64>> = (0..self.reads.len()).map(|i| self.read(i)).collect();
        let model = self.mutator.model_store(cfg);
        let baseline = model_counts(&model, &self.reads);
        let mut rebuilt = Parj::from_store(model, bench_config());
        for (i, q) in self.reads.iter().enumerate() {
            let fresh = rebuilt
                .request(&q.sparql)
                .count_only()
                .run()
                .ok()
                .map(|o| o.count);
            if live[i] != Some(baseline[i]) || live[i] != fresh {
                *failed += 1;
                complaints.push(format!(
                    "{} at end of run: engine {:?}, baseline {}, rebuilt engine {fresh:?}",
                    q.name, live[i], baseline[i]
                ));
            }
        }
    }
}

/// Compares the observed per-state counts with the oracle's sequence.
fn check_sequence(
    observed: &[Vec<Option<u64>>],
    cfg: &LubmConfig,
    failed: &mut u64,
    complaints: &mut Vec<String>,
) {
    let expected = oracle::pinned("mutate_read", cfg.seed, cfg.universities)
        .unwrap_or_else(|| expectation(cfg, 1));
    let sequence = expected
        .get("sequence")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    for (state, (got, want)) in observed.iter().zip(sequence).enumerate() {
        let want: Vec<Option<u64>> = want
            .as_arr()
            .unwrap_or_default()
            .iter()
            .map(Value::as_u64)
            .collect();
        for (i, g) in got.iter().enumerate() {
            if g.is_none() || want.get(i) != Some(g) {
                *failed += 1;
                complaints.push(format!(
                    "state {state} read {i}: engine {g:?}, oracle {:?}",
                    want.get(i)
                ));
            }
        }
    }
}

fn setup(cfg: &LubmConfig) -> (SharedParj, usize) {
    let mut engine = Parj::from_store(lubm::generate_store(cfg), bench_config());
    let base_bytes = engine.store().total_memory_bytes();
    (SharedParj::new(engine), base_bytes)
}

pub fn run(args: &RunArgs) -> Outcome {
    let started = Instant::now();
    let cfg = LubmConfig {
        universities: args.sizes().lubm,
        seed: args.seed,
    };
    let mut setups = Setups::default();
    let (shared, base_bytes) = setups.run(args.sizes().setups, || setup(&cfg));
    let mut bench = Bench {
        shared,
        base_bytes,
        mutator: Mutator::new(&cfg),
        reads: reads(),
        last_write: MutationOutcome::default(),
    };
    if args.trace {
        return traced(args, &cfg, bench, started);
    }
    let (mut failed, mut complaints) = (0u64, Vec::new());
    let mut rejected = |written: Result<MutationOutcome, String>| match written {
        Ok(_) => false,
        Err(e) => {
            complaints.push(e);
            true
        }
    };

    // Warm-up: fill the FIFO with write-only batches, then one read
    // pass, whose counts are state 0.
    for _ in 0..LAG {
        failed += u64::from(rejected(bench.write()));
    }
    let n = bench.reads.len();
    let mut states: Vec<Vec<Option<u64>>> = vec![(0..n).map(|i| bench.read(i)).collect()];

    // One op is one `W R R R R` cycle.
    let log = OpLog::measure(args.seconds, || {
        let t = Instant::now();
        let written = bench.write();
        let counts: Vec<Option<u64>> = (0..n).map(|i| bench.read(i)).collect();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        failed += u64::from(rejected(written) | counts.iter().any(Option::is_none));
        if states.len() < PINNED_STATES {
            states.push(counts);
        }
        ms
    });

    let mut metrics = MetricSet::default();
    let resident = bench.base_bytes + bench.last_write.delta_bytes;
    let triples = bench.last_write.visible_triples;
    let measured = end_to_end(&mut metrics, &log, resident, triples);

    check_sequence(&states, &cfg, &mut failed, &mut complaints);
    bench.final_checks(&cfg, &mut failed, &mut complaints);
    drop(bench);
    drop(setups.run(args.sizes().setups, || setup(&cfg)));
    metrics.set("setup_s", setups.quiet_s());
    Outcome {
        attempted: LAG as u64 + log.ops(),
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

/// Per-write figures a traced replay accumulates besides its spans.
#[derive(Default)]
struct WriteCounters {
    compactions: u64,
    resident_max: usize,
    bytes_at_max: usize,
}

/// Replays `cycles` cycles through `tracer`; returns ms per cycle.
fn replay(
    bench: &mut Bench,
    cycles: usize,
    tracer: &mut Tracer,
    reads: &mut ReadCounters,
    writes: &mut WriteCounters,
    failed: &mut u64,
    complaints: &mut Vec<String>,
) -> f64 {
    let n = bench.reads.len();
    let t = Instant::now();
    for cycle in 0..cycles {
        let id = (cycle * (n + 1)) as u64;
        let span = tracer.open(id, MUTATE, Tracer::ROOT);
        let written = bench.write();
        tracer.close(span);
        match written {
            Ok(w) => {
                tracer.reported_children(
                    span,
                    &[
                        (M_ENCODE, w.phases.encode_micros),
                        (M_APPLY, w.phases.apply_micros),
                        (M_COMPACT, w.phases.compact_micros),
                        (M_INVALIDATE, w.phases.invalidate_micros),
                    ],
                );
                writes.compactions += w.compactions;
                if w.delta_resident_pairs >= writes.resident_max {
                    writes.resident_max = w.delta_resident_pairs;
                    writes.bytes_at_max = w.delta_bytes;
                }
            }
            Err(e) => {
                *failed += 1;
                complaints.push(e);
            }
        }
        for i in 0..n {
            let sparql = &bench.reads[i].sparql;
            let shared = &bench.shared;
            let outcome =
                profile::traced_request(tracer, reads, id + 1 + i as u64, Tracer::ROOT, || {
                    shared.request(sparql).count_only().run()
                });
            *failed += u64::from(outcome.is_err());
        }
    }
    t.elapsed().as_secs_f64() * 1e3 / cycles as f64
}

fn traced(args: &RunArgs, cfg: &LubmConfig, mut bench: Bench, started: Instant) -> Outcome {
    let cycles = ((1.6 * args.seconds) as usize).max(4);
    let n = bench.reads.len();
    let mut m = MetricSet::default();
    let (mut failed, mut complaints) = (0u64, Vec::new());
    profile::emit_build_metrics(&mut m, lubm::generate_builder(cfg));

    // Clean-store read medians, before the first write.
    let clean_ms: Vec<f64> = (0..n)
        .map(|i| {
            timing::median(
                &(0..5)
                    .map(|_| timing::time_ms(|| bench.read(i)).1)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    for _ in 0..LAG {
        if let Err(e) = bench.write() {
            failed += 1;
            complaints.push(e);
        }
    }
    let untraced =
        |bench: &mut Bench, cycles: usize, failed: &mut u64, complaints: &mut Vec<String>| {
            replay(
                bench,
                cycles,
                &mut Tracer::new(false),
                &mut ReadCounters::default(),
                &mut WriteCounters::default(),
                failed,
                complaints,
            )
        };
    // One warm-up cycle, then the same replay twice: a disabled tracer,
    // then the real one.
    untraced(&mut bench, 1, &mut failed, &mut complaints);
    let untraced_ms = untraced(&mut bench, cycles, &mut failed, &mut complaints);
    let mut tracer = Tracer::new(true);
    let (mut reads, mut writes) = (ReadCounters::default(), WriteCounters::default());
    let traced_ms = replay(
        &mut bench,
        cycles,
        &mut tracer,
        &mut reads,
        &mut writes,
        &mut failed,
        &mut complaints,
    );
    m.set(
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    profile::emit_read_metrics(&mut m, &tracer, &reads, profile::REQUEST, cycles);

    // Layer spans over both opaque calls, reads and writes.
    let opaque = tracer.total_ns(profile::REQUEST) + tracer.total_ns(MUTATE);
    let own = tracer.self_ns(profile::REQUEST) + tracer.self_ns(MUTATE);
    m.set("trace.coverage", ratio(opaque - own, opaque));

    let per_batch_us = |name| ratio(tracer.total_ns(name) / 1e3, cycles as f64);
    m.set("core.mutate_encode_us", per_batch_us(M_ENCODE));
    m.set("core.mutate_apply_us", per_batch_us(M_APPLY));
    m.set("core.mutate_compact_us", per_batch_us(M_COMPACT));
    m.set("core.mutate_invalidate_us", per_batch_us(M_INVALIDATE));
    m.set("store.compactions", writes.compactions as f64);
    m.set("store.compact_ms_total", tracer.total_ns(M_COMPACT) / 1e6);
    m.set("store.delta_resident_pairs_max", writes.resident_max as f64);
    m.set(
        "store.delta_bytes_per_pair",
        ratio(writes.bytes_at_max as f64, writes.resident_max as f64),
    );
    let write_ms: Vec<f64> = tracer.durations(MUTATE).iter().map(|ns| ns / 1e6).collect();
    let read_ms: Vec<f64> = tracer
        .durations(profile::REQUEST)
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    m.set("mutate.write_p50_ms", timing::median(&write_ms));
    m.set(
        "mutate.write_tail_ms",
        timing::tail(&write_ms).map_or(0.0, |t| t.value),
    );
    m.set("mutate.read_p50_ms", timing::median(&read_ms));
    // Same queries, delta resident vs clean: Σ of per-query medians.
    let resident_ms: f64 = (0..n)
        .map(|i| {
            timing::median(
                &read_ms
                    .iter()
                    .copied()
                    .skip(i)
                    .step_by(n)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    m.set(
        "join.delta_read_ratio",
        ratio(resident_ms, clean_ms.iter().sum()),
    );

    bench.final_checks(cfg, &mut failed, &mut complaints);
    let triples = bench.last_write.visible_triples as u64;
    let queries = bench.reads.clone();
    drop(bench);
    let mut local = Parj::from_store(lubm::generate_store(cfg), bench_config());
    profile::emit_variant_metrics(
        &mut m,
        &mut local,
        &mut |c| Parj::from_store(lubm::generate_store(cfg), c),
        &queries,
        cycles,
    );
    micro::run(&mut m, local.store(), args.sizes().probes);

    Outcome {
        attempted: (LAG + 2 * cycles * (n + 1)) as u64,
        failed,
        metrics: m,
        samples: reads.requests + cycles as u64,
        round_ops_per_s: Vec::new(),
        tail_percentile: 0.0,
        duration_s: started.elapsed().as_secs_f64(),
        triples,
        tracer: Some(tracer),
        complaints,
    }
}
