//! Cross-crate integration tests: the full pipeline (generate → load →
//! parse → optimize → execute) against both benchmark generators, with
//! every probe strategy and thread count agreeing with each other and
//! with the brute-force reference evaluator.

use parj::baseline::{reference_eval, BaselineEngine, HashJoinEngine, MergeJoinEngine};
use parj::datagen::{lubm, watdiv, NamedQuery};
use parj::{parse_query, LoadSource, OnParseError, Parj, ProbeStrategy, RdfFormat, STerm};

/// Translates a SPARQL query into encoded patterns the baselines and
/// the oracle understand (no predicate variables, constants must
/// exist).
fn encode_patterns(
    engine: &mut Parj,
    sparql: &str,
) -> Option<(Vec<parj_optimizer::Pattern>, usize)> {
    let parsed = parse_query(sparql).unwrap();
    let dict = engine.store().dict();
    let mut names: Vec<String> = Vec::new();
    let mut var_id = |n: &str| -> u16 {
        if let Some(i) = names.iter().position(|x| x == n) {
            i as u16
        } else {
            names.push(n.to_string());
            (names.len() - 1) as u16
        }
    };
    let mut patterns = Vec::new();
    for p in &parsed.patterns {
        let s = match &p.s {
            STerm::Var(v) => parj_join::Atom::Var(var_id(v)),
            STerm::Term(t) => parj_join::Atom::Const(dict.resource_id(t)?),
        };
        let o = match &p.o {
            STerm::Var(v) => parj_join::Atom::Var(var_id(v)),
            STerm::Term(t) => parj_join::Atom::Const(dict.resource_id(t)?),
        };
        let pred = match &p.p {
            STerm::Var(_) => return None,
            STerm::Term(t) => dict.predicate_id(t)?,
        };
        patterns.push(parj_optimizer::Pattern { s, p: pred, o });
    }
    Some((patterns, names.len()))
}

/// Threads of the engines [`consistent_count`] sweeps: a request can
/// lower an engine's thread count but not raise it, so the engine is
/// built at the sweep's maximum (whatever the host's core count).
const SWEEP_THREADS: usize = 4;

fn sweep_config() -> parj::EngineConfig {
    parj::EngineConfig {
        threads: SWEEP_THREADS,
        ..parj::EngineConfig::default()
    }
}

/// Fails a sweep whose parallel rung silently ran inline.
fn assert_helpers_joined(engine: &Parj) {
    let pool = engine.pool_stats();
    assert!(
        pool.is_some_and(|s| s.helper_joins > 0),
        "no pool helper joined any swept query: {pool:?}"
    );
}

/// Runs a query under every strategy × thread combination and checks
/// all counts agree; returns the count. The swept runs use morsels far
/// smaller than the test stores' driver domains, so the
/// `SWEEP_THREADS` rung really shares its morsels with pool helpers.
fn consistent_count(engine: &mut Parj, sparql: &str) -> u64 {
    let base = engine
        .request(sparql)
        .threads(1)
        .count_only()
        .run()
        .unwrap()
        .count;
    for strategy in ProbeStrategy::TABLE5 {
        for threads in [1, SWEEP_THREADS] {
            let got = engine
                .request(sparql)
                .threads(threads)
                .morsel_size(64)
                .strategy(strategy)
                .count_only()
                .run()
                .unwrap()
                .count;
            assert_eq!(
                got, base,
                "{sparql}\nstrategy {strategy} threads {threads}: {got} vs {base}"
            );
        }
    }
    base
}

#[test]
fn lubm_queries_consistent_and_match_oracle() {
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 1,
        seed: 11,
    });
    let mut engine = Parj::from_store(store, sweep_config());
    for q in lubm::queries() {
        let count = consistent_count(&mut engine, &q.sparql);
        // Oracle check (brute force is quadratic; 1 university is fine).
        if let Some((patterns, num_vars)) = encode_patterns(&mut engine, &q.sparql) {
            let expected = reference_eval(engine.store(), &patterns, num_vars).len() as u64;
            assert_eq!(count, expected, "{} disagrees with oracle", q.name);
            // Baselines must agree as well.
            assert_eq!(
                HashJoinEngine::default().run_count(engine.store(), &patterns),
                expected,
                "{} hash baseline",
                q.name
            );
            assert_eq!(
                MergeJoinEngine.run_count(engine.store(), &patterns),
                expected,
                "{} merge baseline",
                q.name
            );
        }
    }
    assert_helpers_joined(&engine);
}

/// Every probe strategy, the Table 5 four and the sequential control.
const ALL_STRATEGIES: [ProbeStrategy; 5] = [
    ProbeStrategy::AlwaysBinary,
    ProbeStrategy::AdaptiveBinary,
    ProbeStrategy::AlwaysIndex,
    ProbeStrategy::AdaptiveIndex,
    ProbeStrategy::AlwaysSequential,
];

/// Checks that the plans of `queries` probe some replicas that have an
/// ID-to-Position index and some that have none, so both arms of the
/// index strategies run; then that all five strategies return the same
/// id rows, in the same order, at 1 and 2 threads.
fn strategies_agree_with_and_without_indexes(store: parj::TripleStore, queries: &[NamedQuery]) {
    let mut engine = Parj::from_store(store, sweep_config());
    let stats = engine.stats();
    let (mut indexed, mut bare) = (0, 0);
    for q in queries {
        let Some((patterns, num_vars)) = encode_patterns(&mut engine, &q.sparql) else {
            continue;
        };
        let plan = parj_optimizer::optimize(&stats, &patterns, num_vars, vec![]).unwrap();
        for step in &plan.steps()[1..] {
            let replica = engine.store().replica(step.predicate, step.order).unwrap();
            match replica.idpos() {
                Some(_) => indexed += 1,
                None => bare += 1,
            }
        }
    }
    assert!(
        indexed > 0 && bare > 0,
        "probed replicas: {indexed} indexed, {bare} without"
    );
    for q in queries {
        let rows = |strategy, threads| {
            engine
                .request(&q.sparql)
                .threads(threads)
                .morsel_size(64)
                .strategy(strategy)
                .run()
                .unwrap()
                .id_rows()
        };
        let base = rows(ProbeStrategy::default(), 1);
        for strategy in ALL_STRATEGIES {
            for threads in [1, 2] {
                assert!(
                    rows(strategy, threads) == base,
                    "{}: strategy {strategy} threads {threads} differs",
                    q.name
                );
            }
        }
    }
}

#[test]
fn lubm_strategies_agree_with_and_without_indexes() {
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 2,
        seed: 11,
    });
    strategies_agree_with_and_without_indexes(store, &lubm::queries());
}

#[test]
fn watdiv_strategies_agree_with_and_without_indexes() {
    let store = watdiv::generate_store(&watdiv::WatDivConfig { scale: 2, seed: 5 });
    strategies_agree_with_and_without_indexes(store, &watdiv::basic_workload());
}

#[test]
fn lubm_selectivity_profile() {
    // The queries must exhibit their designed selectivity classes, or
    // the Table 2 reproduction is meaningless.
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 2,
        seed: 11,
    });
    let engine = Parj::from_store(store, parj::EngineConfig::default());
    let mut counts = std::collections::HashMap::new();
    for q in lubm::queries() {
        let c = engine.request(&q.sparql).count_only().run().unwrap().count;
        counts.insert(q.name.clone(), c);
    }
    // Non-selective / complex queries produce substantial results.
    for big in ["LUBM1", "LUBM2", "LUBM3", "LUBM7", "LUBM8", "LUBM9"] {
        assert!(counts[big] > 100, "{big} = {}", counts[big]);
    }
    // Selective queries stay small but non-empty.
    for small in ["LUBM4", "LUBM5", "LUBM6"] {
        assert!(
            counts[small] > 0 && counts[small] < 200,
            "{small} = {}",
            counts[small]
        );
    }
    // The advisor triangle is the heaviest of the complex family in
    // probe volume; sanity: bigger result than the selective ones.
    assert!(counts["LUBM9"] > counts["LUBM4"]);
}

#[test]
fn watdiv_queries_consistent_and_match_oracle() {
    let store = watdiv::generate_store(&watdiv::WatDivConfig { scale: 1, seed: 5 });
    let mut engine = Parj::from_store(store, sweep_config());
    for q in watdiv::all_queries() {
        let count = consistent_count(&mut engine, &q.sparql);
        if let Some((patterns, num_vars)) = encode_patterns(&mut engine, &q.sparql) {
            let expected = reference_eval(engine.store(), &patterns, num_vars).len() as u64;
            assert_eq!(count, expected, "{} disagrees with oracle", q.name);
        }
    }
    assert_helpers_joined(&engine);
}

#[test]
fn watdiv_workload_selectivity_classes() {
    let store = watdiv::generate_store(&watdiv::WatDivConfig { scale: 2, seed: 5 });
    let mut engine = Parj::from_store(store, parj::EngineConfig::default());
    let count = |e: &mut Parj, sparql: &str| e.request(sparql).count_only().run().unwrap().count;

    // IL-3 (unanchored friendOf chains) must dwarf IL-1/IL-2 (anchored)
    // and grow with length — that contrast is Table 4's entire point.
    let il1: Vec<u64> = watdiv::incremental_linear(1)
        .iter()
        .map(|q| count(&mut engine, &q.sparql))
        .collect();
    let il3: Vec<u64> = watdiv::incremental_linear(3)
        .iter()
        .map(|q| count(&mut engine, &q.sparql))
        .collect();
    assert!(
        il3[0] > 10 * il1[0].max(1),
        "IL-3-5 ({}) should dwarf IL-1-5 ({})",
        il3[0],
        il1[0]
    );
    assert!(il3[0] > 1000, "IL-3-5 too small: {}", il3[0]);
    // Unanchored chains keep growing with path length.
    assert!(
        il3[5] > il3[0],
        "IL-3-10 ({}) should exceed IL-3-5 ({})",
        il3[5],
        il3[0]
    );
    // ML-1 anchored stays far below ML-2 unanchored.
    let ml1: u64 = watdiv::mixed_linear(1)
        .iter()
        .map(|q| count(&mut engine, &q.sparql))
        .sum();
    let ml2: u64 = watdiv::mixed_linear(2)
        .iter()
        .map(|q| count(&mut engine, &q.sparql))
        .sum();
    assert!(ml2 > ml1, "ML-2 total {ml2} should exceed ML-1 total {ml1}");
    // The C3 friend-likes triangle has results (the paper's C3 is huge).
    let c3 = watdiv::basic_workload()
        .into_iter()
        .find(|q| q.name == "C3")
        .unwrap();
    assert!(count(&mut engine, &c3.sparql) > 0, "C3 empty");
}

#[test]
fn full_result_handling_agrees_with_silent_mode() {
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 1,
        seed: 3,
    });
    let engine = Parj::from_store(store, parj::EngineConfig::default());
    for q in lubm::queries().iter().take(6) {
        let count = engine.request(&q.sparql).count_only().run().unwrap().count;
        let full = engine.request(&q.sparql).run().unwrap();
        let rows = full.term_rows().unwrap();
        assert_eq!(count, rows.len() as u64, "{}", q.name);
        // Every decoded row has the projection's arity.
        for row in &rows {
            assert_eq!(row.len(), full.vars.len());
        }
    }
}

#[test]
fn snapshot_roundtrip_preserves_query_results() {
    let store = watdiv::generate_store(&watdiv::WatDivConfig { scale: 1, seed: 9 });
    let engine = Parj::from_store(store, parj::EngineConfig::default());
    let dir = std::env::temp_dir().join(format!("parj-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("watdiv.parj");
    engine.save_snapshot(&path).unwrap();
    let restored = Parj::load_snapshot(&path, parj::EngineConfig::default()).unwrap();
    for q in watdiv::basic_workload() {
        assert_eq!(
            engine.request(&q.sparql).count_only().run().unwrap().count,
            restored
                .request(&q.sparql)
                .count_only()
                .run()
                .unwrap()
                .count,
            "{} after snapshot",
            q.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ntriples_roundtrip_through_engine() {
    // Generate → serialize → reload through the N-Triples parser →
    // identical store.
    let cfg = lubm::LubmConfig {
        universities: 1,
        seed: 21,
    };
    let mut text = Vec::new();
    lubm::write_ntriples(&cfg, &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();

    let mut loader = Parj::builder().loader();
    loader
        .load(
            LoadSource::Text(&text),
            RdfFormat::NTriples,
            OnParseError::Abort,
        )
        .unwrap();
    let via_text = loader.finish();
    let via_gen = Parj::from_store(lubm::generate_store(&cfg), parj::EngineConfig::default());
    assert_eq!(via_text.num_triples(), via_gen.num_triples());
    for q in lubm::queries() {
        assert_eq!(
            via_text
                .request(&q.sparql)
                .count_only()
                .run()
                .unwrap()
                .count,
            via_gen.request(&q.sparql).count_only().run().unwrap().count,
            "{}",
            q.name
        );
    }
}
