//! Workspace-level property tests: for *arbitrary* random graphs and
//! random (connected) BGPs, the full PARJ pipeline — SPARQL text →
//! parser → translation → optimizer → adaptive parallel executor —
//! produces exactly the solution multiset of the brute-force reference
//! evaluator, under every probe strategy and thread count.

use proptest::prelude::*;

use parj::baseline::{reference_eval, BaselineEngine, HashJoinEngine, MergeJoinEngine};
use parj::{EngineConfig, Parj, ParjError, ProbeStrategy, Term};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool helpers seated across every case of `engine_cases` (each case
/// builds its own engine, so the suite-level count is summed here).
static HELPER_JOINS: AtomicU64 = AtomicU64::new(0);

const RESOURCES: u32 = 20;
const PREDICATES: u32 = 4;
const VARS: u16 = 4;

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

#[derive(Debug, Clone)]
struct Case {
    triples: Vec<(u32, u32, u32)>,
    patterns: Vec<(Slot, u32, Slot)>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let triples = proptest::collection::vec(
        (0..RESOURCES, 0..PREDICATES, 0..RESOURCES),
        1..120,
    );
    let patterns = proptest::collection::vec((arb_slot(), 0..PREDICATES, arb_slot()), 1..4);
    (triples, patterns).prop_map(|(triples, patterns)| Case { triples, patterns })
}

fn iri(i: u32) -> String {
    format!("http://t/r{i}")
}

fn pred_iri(p: u32) -> String {
    format!("http://t/p{p}")
}

fn slot_sparql(s: Slot) -> String {
    match s {
        Slot::Var(v) => format!("?v{v}"),
        Slot::Const(c) => format!("<{}>", iri(c)),
    }
}

/// Builds the engine, the SPARQL text and the encoded patterns for a
/// case. Every resource/predicate id is pre-seeded into the dictionary
/// so constants always resolve and ids equal the raw numbers.
fn build(case: &Case) -> (Parj, String, Vec<parj_optimizer::Pattern>, usize) {
    // Built at the sweep's maximum thread count (a request can only
    // lower it), with morsels small enough that these ≤ 20-key driver
    // domains span several — otherwise every case would run inline.
    let mut engine = Parj::builder().threads(4).morsel_size(2).build();
    // Seed dense dictionaries (generation order = id order).
    let mut nt = String::new();
    for r in 0..RESOURCES {
        nt.push_str(&format!("<{}> <http://t/seed> <{}> .\n", iri(r), iri(r)));
    }
    for (s, p, o) in &case.triples {
        nt.push_str(&format!(
            "<{}> <{}> <{}> .\n",
            iri(*s),
            pred_iri(*p),
            iri(*o)
        ));
    }
    engine.load_ntriples_str(&nt).expect("seed engine");
    let body: String = case
        .patterns
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
    // Variable numbering: first-occurrence order, matching both the
    // engine's translator and the oracle's binding layout. The SELECT
    // clause projects in exactly this order so engine rows and oracle
    // rows are slot-for-slot comparable.
    let mut order: Vec<u16> = Vec::new();
    for (s, _, o) in &case.patterns {
        for slot in [s, o] {
            if let Slot::Var(v) = slot {
                if !order.contains(v) {
                    order.push(*v);
                }
            }
        }
    }
    let select: String = if order.is_empty() {
        "*".to_string()
    } else {
        order.iter().map(|v| format!("?v{v} ")).collect::<String>()
    };
    let sparql = format!("SELECT {select} WHERE {{ {body}}}");
    let atom = |s: Slot| match s {
        Slot::Var(v) => parj_join::Atom::Var(order.iter().position(|&x| x == v).unwrap() as u16),
        Slot::Const(c) => parj_join::Atom::Const(c),
    };
    let patterns: Vec<parj_optimizer::Pattern> = case
        .patterns
        .iter()
        .map(|(s, p, o)| parj_optimizer::Pattern {
            s: atom(*s),
            // Predicate ids: "seed" is predicate 0, then p0.. follow in
            // first-use order — resolve via the dictionary instead of
            // assuming.
            p: *p,
            o: atom(*o),
        })
        .collect();
    (engine, sparql, patterns, order.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine count == oracle count == baseline counts, under all
    /// strategies and 1/4 threads; materialized rows match as multisets.
    /// Not a `#[test]` itself: the wrapper below also checks that the
    /// sweep really ran in parallel.
    fn engine_cases(case in arb_case()) {
        let (mut engine, sparql, mut patterns, num_vars) = build(&case);
        // Fix up predicate ids via the dictionary (seed predicate is 0).
        let dict = engine.store().dict();
        // A predicate that never occurs in the triples has no dictionary
        // id; map it to a sentinel that matches nothing (the engine
        // reaches the same conclusion via its empty-translation path).
        let pred_ids: Vec<u32> = (0..PREDICATES)
            .map(|p| {
                dict.predicate_id(&Term::iri(pred_iri(p)))
                    .unwrap_or(u32::MAX)
            })
            .collect();
        for (pat, (_, p, _)) in patterns.iter_mut().zip(&case.patterns) {
            pat.p = pred_ids[*p as usize];
        }

        let expected_rows = reference_eval(engine.store(), &patterns, num_vars);
        let expected = expected_rows.len() as u64;

        let result = engine.request(&sparql).count_only().run();
        let count = match result {
            Ok(out) => out.count,
            Err(ParjError::Optimize(parj_optimizer::OptimizeError::Disconnected)) => {
                // Left-deep pipelines reject pure cartesian products;
                // the oracle would enumerate them. Skip.
                return Ok(());
            }
            Err(e) => return Err(TestCaseError::fail(format!("engine error: {e}"))),
        };
        prop_assert_eq!(count, expected, "query {}", sparql);

        for strategy in ProbeStrategy::TABLE5 {
            for threads in [1usize, 4] {
                let c = engine
                    .request(&sparql)
                    .threads(threads)
                    .strategy(strategy)
                    .count_only()
                    .run()
                    .unwrap()
                    .count;
                prop_assert_eq!(c, expected, "{} under {} x{}", sparql, strategy, threads);
            }
        }

        // Baselines agree (textual order).
        prop_assert_eq!(HashJoinEngine::default().run_count(engine.store(), &patterns), expected);
        prop_assert_eq!(MergeJoinEngine.run_count(engine.store(), &patterns), expected);

        // Row-level multiset equality (projection = all vars in first-
        // occurrence order, matching the oracle's binding layout).
        if num_vars > 0 {
            let mut rows = engine
                .request(&sparql)
                .run()
                .unwrap()
                .id_rows();
            rows.sort_unstable();
            let mut oracle_rows = expected_rows;
            oracle_rows.sort_unstable();
            prop_assert_eq!(rows, oracle_rows, "rows for {}", sparql);
        }
        let joined = engine.pool_stats().map_or(0, |s| s.helper_joins);
        HELPER_JOINS.fetch_add(joined, Ordering::Relaxed);
    }

    /// Snapshots preserve query results for arbitrary graphs.
    #[test]
    fn snapshot_faithful(case in arb_case()) {
        let (mut engine, sparql, _, _) = build(&case);
        let count = match engine.request(&sparql).count_only().run() {
            Ok(out) => out.count,
            Err(_) => return Ok(()),
        };
        let bytes = {
            engine.finalize();
            engine.store().to_snapshot_bytes()
        };
        let store = parj::TripleStore::from_snapshot_bytes(&bytes).unwrap();
        let mut restored = Parj::from_store(store, EngineConfig::default());
        let restored_count = restored.request(&sparql).count_only().run().unwrap().count;
        prop_assert_eq!(restored_count, count);
    }
}

#[test]
fn engine_matches_oracle() {
    engine_cases();
    assert!(
        HELPER_JOINS.load(Ordering::Relaxed) > 0,
        "no pool helper joined any case: the 4-thread rung ran inline"
    );
}
