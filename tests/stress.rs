//! Large-scale stress test, `#[ignore]`d by default (minutes of CPU):
//!
//! ```sh
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! Builds a LUBM-like store an order of magnitude above the normal test
//! scales, validates all storage invariants, runs the full query suite
//! under every probe strategy, and exercises snapshot round-tripping at
//! size.

use parj::datagen::lubm;
use parj::{EngineConfig, Parj, ProbeStrategy};

#[test]
#[ignore = "minutes of CPU; run with --ignored for release validation"]
fn lubm_at_scale() {
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 60,
        seed: 1,
    });
    assert!(store.num_triples() > 800_000, "{}", store.num_triples());
    store.check_invariants().expect("invariants at scale");

    let bytes = store.to_snapshot_bytes();
    // Built at the sweep's thread count: a request can lower an
    // engine's threads but not raise them (single-CPU runners default
    // to 1, which would make the `threads(4)` pass below inline).
    let engine = Parj::from_store(
        store,
        EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        },
    );

    // Strategy-invariance of every query at scale.
    let mut baseline_counts = Vec::new();
    for q in lubm::queries() {
        let out = engine
            .request(&q.sparql)
            .count_only()
            .run()
            .expect("query runs");
        assert!(
            out.stats.exec_micros < 60_000_000,
            "{} took too long",
            q.name
        );
        baseline_counts.push((q.name.clone(), out.count));
    }
    for strategy in ProbeStrategy::TABLE5 {
        for q in lubm::queries() {
            let count = engine
                .request(&q.sparql)
                .threads(4)
                .strategy(strategy)
                .count_only()
                .run()
                .expect("runs")
                .count;
            let expected = baseline_counts
                .iter()
                .find(|(n, _)| n == &q.name)
                .expect("known query")
                .1;
            assert_eq!(count, expected, "{} under {strategy}", q.name);
        }
    }
    let pool = engine.pool_stats();
    assert!(
        pool.is_some_and(|s| s.helper_joins > 0),
        "the threads(4) pass never seated a pool helper: {pool:?}"
    );

    // Snapshot round-trip at size.
    let restored = parj::TripleStore::from_snapshot_bytes(&bytes).expect("snapshot decodes");
    let restored = Parj::from_store(restored, EngineConfig::default());
    for (name, count) in &baseline_counts {
        let q = lubm::queries()
            .into_iter()
            .find(|q| &q.name == name)
            .expect("query");
        let restored_count = restored
            .request(&q.sparql)
            .count_only()
            .run()
            .unwrap()
            .count;
        assert_eq!(restored_count, *count, "{name} after snapshot");
    }
}
