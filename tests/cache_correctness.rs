//! Cache transparency suite: the plan/result caching layer must be
//! invisible to answers. For arbitrary graphs, arbitrary (connected or
//! not) BGP pools and arbitrary interleavings of updates and queries,
//! a cache-enabled engine returns byte-identical counts and rows to a
//! cache-disabled engine fed the same operations — and across a long
//! deterministic update/query interleaving, no run is ever served a
//! stale answer. Requests on a shared engine pin the version published
//! when they are built: an answer computed on a replaced version is
//! never served to a request on a newer one, and concurrent readers
//! see a version between their start and their end.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;

use parj::{CacheStatus, Parj, QueryOutcome, Term};

const RESOURCES: u32 = 16;
const PREDICATES: u32 = 3;
const VARS: u16 = 3;

fn iri(i: u32) -> String {
    format!("http://t/r{i}")
}

fn pred_iri(p: u32) -> String {
    format!("http://t/p{p}")
}

/// One slot of a random pattern: variable index or resource constant.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Var(u16),
    Const(u32),
}

fn arb_slot() -> impl Strategy<Value = Slot> {
    prop_oneof![
        3 => (0..VARS).prop_map(Slot::Var),
        1 => (0..RESOURCES).prop_map(Slot::Const),
    ]
}

fn slot_sparql(s: Slot) -> String {
    match s {
        Slot::Var(v) => format!("?v{v}"),
        Slot::Const(c) => format!("<{}>", iri(c)),
    }
}

fn query_text(patterns: &[(Slot, u32, Slot)]) -> String {
    let body: String = patterns
        .iter()
        .map(|(s, p, o)| {
            format!(
                "{} <{}> {} . ",
                slot_sparql(*s),
                pred_iri(*p),
                slot_sparql(*o)
            )
        })
        .collect();
    format!("SELECT * WHERE {{ {body}}}")
}

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Run query `idx` from the case's query pool (twice on the cached
    /// engine, so the second run exercises the hit path).
    Query(usize),
    /// Insert a triple into both engines through `mutate()` — the batch
    /// lands in the delta overlay and bumps only the touched
    /// predicate's epoch.
    Update(u32, u32, u32),
    /// Delete a triple from both engines (a no-op when absent, which
    /// the pool generates often — exercising the nothing-touched,
    /// nothing-invalidated path).
    Delete(u32, u32, u32),
}

#[derive(Debug, Clone)]
struct Case {
    triples: Vec<(u32, u32, u32)>,
    queries: Vec<Vec<(Slot, u32, Slot)>>,
    ops: Vec<Op>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let triples = proptest::collection::vec((0..RESOURCES, 0..PREDICATES, 0..RESOURCES), 1..60);
    let queries = proptest::collection::vec(
        proptest::collection::vec((arb_slot(), 0..PREDICATES, arb_slot()), 1..3),
        1..4,
    );
    let ops = proptest::collection::vec(
        prop_oneof![
            4 => (0usize..4).prop_map(Op::Query),
            1 => (0..RESOURCES, 0..PREDICATES, 0..RESOURCES)
                .prop_map(|(s, p, o)| Op::Update(s, p, o)),
            1 => (0..RESOURCES, 0..PREDICATES, 0..RESOURCES)
                .prop_map(|(s, p, o)| Op::Delete(s, p, o)),
        ],
        1..16,
    );
    (triples, queries, ops).prop_map(|(triples, queries, ops)| Case {
        triples,
        queries,
        ops,
    })
}

fn triple(s: u32, p: u32, o: u32) -> (Term, Term, Term) {
    (Term::iri(iri(s)), Term::iri(pred_iri(p)), Term::iri(iri(o)))
}

fn load(engine: &Parj, triples: &[(u32, u32, u32)]) {
    engine
        .mutate()
        .insert_all(triples.iter().map(|&(s, p, o)| triple(s, p, o)))
        .run()
        .expect("load");
}

fn sorted_rows(outcome: &QueryOutcome) -> Vec<Vec<Term>> {
    assert!(outcome.answer().is_some(), "materializing run returns rows");
    let mut rows = outcome.term_rows().expect("engine ids decode");
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached and cache-off engines fed the same update/query
    /// interleaving agree on every count and every row multiset, and
    /// repeat runs on the cached engine (hit path) agree too.
    #[test]
    fn cached_answers_match_cold_engine(case in arb_case()) {
        let cached = Parj::builder().threads(2).cache(true).build();
        let plain = Parj::builder().threads(2).build();
        load(&cached, &case.triples);
        load(&plain, &case.triples);

        for op in &case.ops {
            match op {
                Op::Update(s, p, o) => {
                    for e in [&cached, &plain] {
                        let (ts, tp, to) = triple(*s, *p, *o);
                        e.mutate().insert(ts, tp, to).run().unwrap();
                    }
                }
                Op::Delete(s, p, o) => {
                    for e in [&cached, &plain] {
                        let (ts, tp, to) = triple(*s, *p, *o);
                        e.mutate().delete(ts, tp, to).run().unwrap();
                    }
                }
                Op::Query(idx) => {
                    let q = query_text(&case.queries[idx % case.queries.len()]);
                    let reference = match plain.request(&q).run() {
                        Ok(r) => r,
                        Err(err) => {
                            // Rejections (e.g. disconnected BGPs) must
                            // be identical with the cache on.
                            let cached_err = cached.request(&q).run().unwrap_err();
                            prop_assert_eq!(format!("{cached_err:?}"), format!("{err:?}"));
                            continue;
                        }
                    };
                    prop_assert_eq!(reference.stats.cache, CacheStatus::Off);
                    let expect_rows = sorted_rows(&reference);

                    let first = cached.request(&q).run().unwrap();
                    prop_assert_ne!(first.stats.cache, CacheStatus::Off);
                    prop_assert_eq!(first.count, reference.count);
                    prop_assert_eq!(sorted_rows(&first), expect_rows.clone());

                    // Second run: typically a result hit; whatever the
                    // cache decided, the answer must not change.
                    let second = cached.request(&q).run().unwrap();
                    prop_assert_eq!(second.count, reference.count);
                    prop_assert_eq!(sorted_rows(&second), expect_rows);

                    // Counting mode keys a separate entry; it must
                    // agree with the materialized cardinality.
                    let n = cached.request(&q).count_only().run().unwrap();
                    prop_assert_eq!(n.count, reference.count);
                }
            }
        }
    }
}

/// A long deterministic interleaving: ~10k query runs against a cached
/// engine, with an incremental write every 40 queries (an insert, and
/// every third write a delete) — so invalidation is per-predicate
/// epoch bumps, never a store rebuild. Every run is checked against an
/// uncached `bypass_cache()` run on the same engine — a single stale
/// answer fails the loop with its iteration index.
#[test]
fn ten_thousand_interleavings_serve_zero_stale() {
    let engine = Parj::builder().threads(1).cache(true).build();
    load(
        &engine,
        &(0..8u32)
            .map(|i| (i, i % PREDICATES, (i + 1) % 8))
            .collect::<Vec<_>>(),
    );
    let queries: Vec<String> = (0..PREDICATES)
        .map(|p| format!("SELECT * WHERE {{ ?s <{}> ?o }}", pred_iri(p)))
        .chain(std::iter::once(format!(
            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c }}",
            pred_iri(0),
            pred_iri(1)
        )))
        .collect();

    // Simple deterministic LCG so the mix is reproducible without any
    // randomness source.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };

    let mut writes = 0u32;
    for iter in 0..10_000u32 {
        if iter % 40 == 39 {
            let (s, p, o) = (next() % RESOURCES, next() % PREDICATES, next() % RESOURCES);
            let (ts, tp, to) = triple(s, p, o);
            writes += 1;
            let req = engine.mutate();
            if writes.is_multiple_of(3) {
                req.delete(ts, tp, to).run().unwrap();
            } else {
                req.insert(ts, tp, to).run().unwrap();
            }
        }
        let q = &queries[(next() as usize) % queries.len()];
        let cached = engine.request(q).run().unwrap();
        let fresh = engine.request(q).bypass_cache().run().unwrap();
        assert_eq!(fresh.stats.cache, CacheStatus::Bypassed);
        assert_eq!(
            cached.count, fresh.count,
            "stale count at iteration {iter} for {q}"
        );
        assert_eq!(
            sorted_rows(&cached),
            sorted_rows(&fresh),
            "stale rows at iteration {iter} for {q}"
        );
    }
}

/// Pins the per-predicate invalidation contract: a write touching
/// predicate `p1` invalidates exactly the entries whose query
/// references `p1` — a query over `p0` keeps serving result hits
/// across the interleaved writes, never re-executing.
#[test]
fn writes_leave_untouched_predicate_entries_hot() {
    let engine = Parj::builder().threads(1).cache(true).build();
    load(&engine, &[(0, 0, 1), (1, 0, 2), (1, 1, 3), (3, 1, 4)]);

    let q0 = format!("SELECT * WHERE {{ ?s <{}> ?o }}", pred_iri(0));
    let q1 = format!("SELECT * WHERE {{ ?s <{}> ?o }}", pred_iri(1));
    let join = format!(
        "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c }}",
        pred_iri(0),
        pred_iri(1)
    );

    // Warm all three entries.
    for q in [&q0, &q1, &join] {
        assert_eq!(
            engine.request(q).run().unwrap().stats.cache,
            CacheStatus::Miss
        );
        assert_eq!(
            engine.request(q).run().unwrap().stats.cache,
            CacheStatus::ResultHit
        );
    }

    // Ten writes, all confined to p1.
    for i in 0..10u32 {
        let out = engine
            .mutate()
            .insert(
                Term::iri(iri(5 + i % 3)),
                Term::iri(pred_iri(1)),
                Term::iri(iri(i % 5)),
            )
            .delete(
                Term::iri(iri(5 + i % 3)),
                Term::iri(pred_iri(1)),
                Term::iri(iri(i % 5)),
            )
            .run()
            .unwrap();
        assert_eq!(
            out.predicates_touched, 0,
            "insert+delete of the same triple nets out"
        );

        let out = engine
            .mutate()
            .insert(
                Term::iri(iri(5)),
                Term::iri(pred_iri(1)),
                Term::iri(iri(6 + i % 2)),
            )
            .run()
            .unwrap();
        assert!(out.predicates_touched <= 1);

        // The untouched predicate's entry survives every write.
        assert_eq!(
            engine.request(&q0).run().unwrap().stats.cache,
            CacheStatus::ResultHit,
            "write {i} to p1 must not evict the p0 entry"
        );
    }

    // Entries referencing the touched predicate went stale — and the
    // re-executed answers reflect the writes.
    let fresh = engine.request(&q1).run().unwrap();
    assert_eq!(fresh.stats.cache, CacheStatus::Miss);
    assert_eq!(fresh.count, 4, "2 base + (5,p1,6) + (5,p1,7)");
    let fresh_join = engine.request(&join).run().unwrap();
    assert_eq!(fresh_join.stats.cache, CacheStatus::Miss);

    // A delete on p0 now invalidates the p0 entry (and the join), but
    // leaves the freshly re-cached p1 entry alone.
    assert_eq!(
        engine.request(&q1).run().unwrap().stats.cache,
        CacheStatus::ResultHit
    );
    let out = engine
        .mutate()
        .delete(Term::iri(iri(0)), Term::iri(pred_iri(0)), Term::iri(iri(1)))
        .run()
        .unwrap();
    assert_eq!((out.deleted, out.predicates_touched), (1, 1));
    let after = engine.request(&q0).run().unwrap();
    assert_eq!(after.stats.cache, CacheStatus::Miss);
    assert_eq!(after.count, 1);
    assert_eq!(
        engine.request(&q1).run().unwrap().stats.cache,
        CacheStatus::ResultHit
    );
}

/// A request built before a write and run after it computes its answer
/// on the version it pinned, and inserts it with that version's stamps.
/// The next request, on the new version, must not be served that entry.
#[test]
fn answer_from_a_replaced_version_is_never_served() {
    let engine = Parj::builder().threads(1).cache(true).build();
    load(&engine, &[(0, 0, 1), (1, 0, 2), (1, 1, 3)]);
    let shared = engine;
    let q = format!("SELECT * WHERE {{ ?s <{}> ?o }}", pred_iri(0));

    let pinned = shared.request(&q);
    let (s, p, o) = triple(2, 0, 3);
    let out = shared.mutate().insert(s, p, o).run().unwrap();
    assert_eq!(out.cache_invalidations, 1);
    let old = pinned.run().unwrap();
    assert_eq!(old.count, 2, "the pinned version predates the write");
    assert_eq!(
        old.stats.cache,
        CacheStatus::Miss,
        "computed, then inserted"
    );

    let fresh = shared.request(&q).run().unwrap();
    assert_eq!(fresh.stats.cache, CacheStatus::Miss);
    assert_eq!(fresh.count, 3);
    assert_eq!(sorted_rows(&fresh).len(), 3);
    let again = shared.request(&q).run().unwrap();
    assert_eq!(
        (again.stats.cache, again.count),
        (CacheStatus::ResultHit, 3)
    );
}

/// One insert-only writer and four readers on one cached engine.
/// A read's count must be that of some version from the last batch that
/// returned before the read started to the last one that started before
/// it ended, checked against counts precomputed on a cold engine.
#[test]
fn concurrent_reads_see_a_version_between_their_start_and_end() {
    const BATCHES: u32 = 200;
    let base: Vec<(u32, u32, u32)> = (0..8).map(|i| (i, i % PREDICATES, (i + 1) % 8)).collect();
    // Every other batch adds a term; the rest reuse known ones.
    let batch = |i: u32| {
        let o = if i.is_multiple_of(2) {
            RESOURCES + i
        } else {
            i % RESOURCES
        };
        triple(i % 8, i % PREDICATES, o)
    };
    let queries: Vec<String> = (0..PREDICATES)
        .map(|p| format!("SELECT * WHERE {{ ?s <{}> ?o }}", pred_iri(p)))
        .chain(std::iter::once(format!(
            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c }}",
            pred_iri(0),
            pred_iri(1)
        )))
        .collect();

    // counts[v][q]: query q's count after v batches, on a cold engine.
    let cold = Parj::builder().threads(1).build();
    load(&cold, &base);
    let mut counts = Vec::new();
    for v in 0..=BATCHES {
        if v > 0 {
            let (s, p, o) = batch(v - 1);
            cold.mutate().insert(s, p, o).run().unwrap();
        }
        let row: Vec<u64> = queries
            .iter()
            .map(|q| cold.request(q).count_only().run().unwrap().count)
            .collect();
        counts.push(row);
    }

    let engine = Parj::builder().threads(2).cache(true).build();
    load(&engine, &base);
    let shared = engine;
    let started = AtomicUsize::new(0);
    let returned = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for reader in 0..4usize {
            let (shared, queries, counts) = (&shared, &queries, &counts);
            let (started, returned, done, reads) = (&started, &returned, &done, &reads);
            scope.spawn(move || {
                let mut i = reader;
                while !done.load(Ordering::SeqCst) {
                    let q = i % queries.len();
                    let lo = returned.load(Ordering::SeqCst);
                    let req = shared.request(&queries[q]);
                    let out = if i.is_multiple_of(2) {
                        req.count_only().run()
                    } else {
                        req.run()
                    };
                    let count = out.unwrap().count;
                    let hi = started.load(Ordering::SeqCst);
                    assert!(
                        (lo..=hi).any(|v| counts[v][q] == count),
                        "{}: count {count} is no version in {lo}..={hi}",
                        queries[q]
                    );
                    reads.fetch_add(1, Ordering::SeqCst);
                    i += 1;
                }
            });
        }
        for i in 0..BATCHES {
            started.fetch_add(1, Ordering::SeqCst);
            let (s, p, o) = batch(i);
            shared.mutate().insert(s, p, o).run().unwrap();
            returned.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        done.store(true, Ordering::SeqCst);
    });
    assert!(reads.load(Ordering::SeqCst) >= 4, "the readers ran");
    for (q, text) in queries.iter().enumerate() {
        let last = shared.request(text).run().unwrap();
        assert_eq!(last.count, counts[BATCHES as usize][q], "{text}");
    }
    assert!(shared.audit().is_clean());
}
