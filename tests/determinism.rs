//! Determinism suite for morsel-driven pooled execution.
//!
//! The executor's contract is that results are **byte-identical**
//! regardless of how the driver domain is carved into morsels and how
//! many pool workers join the submitting thread (the `threads = 1`
//! rung is the inline run). This suite pins that
//! contract end-to-end through the facade on both benchmark dataset
//! shapes, including the guarded early-exit paths (cancel, deadline,
//! row budget), the cache-fingerprint consequences (a result computed
//! under one thread/morsel configuration is served verbatim under any
//! other), and the load-balance claim that dynamic morsel pulling
//! never distributes work worse than the old static per-thread shards.

use parj::datagen::{lubm, watdiv};
use parj::{
    CacheStatus, CancelToken, EngineConfig, Parj, ParjError, RunOverrides,
};
use std::time::Duration;

/// Thread ladder: serial, even splits, and more workers than cores.
const THREADS: [usize; 4] = [1, 2, 4, 9];

/// Morsel ladder: degenerate single-key morsels, small, and the
/// default (which exceeds every test domain, i.e. one morsel total).
const MORSELS: [usize; 3] = [1, 64, 16_384];

fn lubm_store() -> parj::TripleStore {
    lubm::generate_store(&lubm::LubmConfig {
        universities: 1,
        seed: 11,
    })
}

fn watdiv_store() -> parj::TripleStore {
    watdiv::generate_store(&watdiv::WatDivConfig { scale: 10, seed: 11 })
}

/// Base config for the suite: enough configured threads that the
/// engine's pool (threads − 1 workers) covers the whole ladder.
fn config() -> EngineConfig {
    EngineConfig {
        threads: 9,
        ..EngineConfig::default()
    }
}

/// Runs every `THREADS × MORSELS` combination of `sparql` on `engine`
/// in ids mode and asserts the id rows equal `baseline` *exactly* —
/// same rows, same order, which for dictionary ids is byte identity.
fn assert_all_combos_match(
    engine: &mut Parj,
    sparql: &str,
    name: &str,
    baseline: &[Vec<parj::Id>],
) {
    for threads in THREADS {
        for morsel in MORSELS {
            let got = engine
                .request(sparql)
                .threads(threads)
                .morsel_size(morsel)
                .run()
                .unwrap_or_else(|e| panic!("{name} t={threads} m={morsel}: {e}"))
                .id_rows();
            assert_eq!(
                got, baseline,
                "{name}: rows diverged at threads={threads} morsel={morsel}"
            );
        }
    }
}

#[test]
fn lubm_rows_identical_across_threads_and_morsels() {
    let mut pooled = Parj::from_store(lubm_store(), config());
    for q in lubm::queries() {
        let baseline = pooled
            .request(&q.sparql)
            .threads(1)
            .run()
            .expect("baseline runs")
            .id_rows();
        assert_all_combos_match(&mut pooled, &q.sparql, &q.name, &baseline);
    }
    // Without this the whole ladder could run inline and every
    // comparison above would pass vacuously.
    assert!(
        pooled.pool_stats().is_some_and(|s| s.helper_joins > 0),
        "multi-thread runs must actually seat pool helpers: {:?}",
        pooled.pool_stats()
    );
}

#[test]
fn watdiv_rows_identical_across_threads_and_morsels() {
    let mut pooled = Parj::from_store(watdiv_store(), config());
    // One query per WatDiv shape class keeps the suite fast while
    // still covering linear, star, snowflake and complex pipelines.
    let picks = ["L2", "S3", "F3", "C2"];
    let queries: Vec<_> = watdiv::basic_workload()
        .into_iter()
        .filter(|q| picks.contains(&q.name.as_str()))
        .collect();
    assert_eq!(queries.len(), picks.len(), "shape picks must resolve");
    for q in queries {
        let baseline = pooled
            .request(&q.sparql)
            .threads(1)
            .run()
            .expect("baseline runs")
            .id_rows();
        assert!(!baseline.is_empty(), "{} must produce rows", q.name);
        assert_all_combos_match(&mut pooled, &q.sparql, &q.name, &baseline);
    }
}

type TermTriples = Vec<(parj::Term, parj::Term, parj::Term)>;

/// The same incremental mutation batch, decoded back to terms, for any
/// store: tombstone every 7th stored triple and insert a fresh subject
/// against every 11th triple's predicate/object.
fn mutation_batch(store: &parj::TripleStore) -> (TermTriples, TermTriples) {
    let dict = store.dict();
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for (i, t) in store.iter_triples().enumerate() {
        let p = dict.decode_predicate(t.p).expect("predicate decodes");
        if i % 7 == 0 {
            deletes.push((
                dict.decode_resource(t.s).expect("subject decodes"),
                p.clone(),
                dict.decode_resource(t.o).expect("object decodes"),
            ));
        }
        if i % 11 == 0 {
            inserts.push((
                parj::Term::iri(format!("http://delta.example/n{i}")),
                p,
                dict.decode_resource(t.o).expect("object decodes"),
            ));
        }
    }
    (inserts, deletes)
}

#[test]
fn delta_rows_identical_to_compacted_store_across_combos() {
    // Three engines over the same logical data: one whose batch stays
    // resident as sorted delta runs (threshold 0 = never compact), one
    // compacted inline (threshold 1 = always compact), and one fully
    // rebuilt from scratch via snapshot round-trip. The byte-identity
    // contract: probing resident runs must be indistinguishable — same
    // rows, same order, every threads × morsels combo —
    // from probing the fully compacted partitions. The rebuilt engine
    // is compared as a sorted multiset instead: a rebuild refreshes
    // the optimizer's statistics (histograms, pair cardinalities),
    // which may legitimately pick a different join order; recomputing
    // those per batch would be O(dataset), the very cost the delta
    // design exists to avoid.
    let base = lubm_store();
    let (inserts, deletes) = mutation_batch(&base);
    assert!(!inserts.is_empty() && !deletes.is_empty());

    let mut resident = Parj::from_store(
        lubm_store(),
        EngineConfig {
            delta_compaction_threshold: 0,
            ..config()
        },
    );
    let mut compacted = Parj::from_store(
        lubm_store(),
        EngineConfig {
            delta_compaction_threshold: 1,
            ..config()
        },
    );
    for engine in [&mut resident, &mut compacted] {
        let out = engine
            .mutate()
            .insert_all(inserts.iter().cloned())
            .delete_all(deletes.iter().cloned())
            .run()
            .expect("mutation batch");
        assert_eq!(out.inserted, inserts.len() as u64);
        assert_eq!(out.deleted, deletes.len() as u64);
    }
    // The two configurations really sit in different physical states.
    let resident_pairs = |e: &Parj| {
        e.metrics_snapshot()
            .value("parj_delta_resident_triples", &[])
            .expect("gauge exported")
    };
    assert!(resident_pairs(&resident) > 0, "threshold 0 must keep runs resident");
    assert_eq!(resident_pairs(&compacted), 0, "threshold 1 must compact every batch");

    // Rebuilt-from-scratch oracle: a fourth engine given the same
    // batch, snapshotted (which folds its delta into a full rebuild)
    // and reloaded. Snapshotting `resident` itself would fold — and so
    // destroy — the resident runs this test exists to probe.
    let dir = std::env::temp_dir().join(format!("parj-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("folded.parj");
    {
        let mut oracle = Parj::from_store(lubm_store(), config());
        oracle
            .mutate()
            .insert_all(inserts.iter().cloned())
            .delete_all(deletes.iter().cloned())
            .run()
            .expect("oracle batch");
        oracle.save_snapshot(&path).expect("snapshot");
    }
    let mut folded = Parj::load_snapshot(&path, config()).expect("reload");
    std::fs::remove_dir_all(&dir).ok();

    for q in lubm::queries() {
        let baseline = compacted
            .request(&q.sparql)
            .threads(1)
            .run()
            .expect("baseline runs")
            .id_rows();
        assert_all_combos_match(&mut resident, &q.sparql, &q.name, &baseline);
        assert_all_combos_match(&mut compacted, &q.sparql, &q.name, &baseline);

        // Rebuilt-from-scratch agreement, order-insensitive.
        let mut from_rebuild = folded
            .request(&q.sparql)
            .threads(1)
            .run()
            .expect("rebuilt runs")
            .id_rows();
        let mut sorted_baseline = baseline;
        from_rebuild.sort_unstable();
        sorted_baseline.sort_unstable();
        assert_eq!(
            from_rebuild, sorted_baseline,
            "{}: delta view and from-scratch rebuild disagree",
            q.name
        );
    }
}

#[test]
fn cache_fingerprint_hits_across_thread_and_morsel_combos() {
    // Because answers are configuration-independent, the cache key
    // must be too: a result computed serially is served verbatim to a
    // 9-thread, 1-key-morsel request and vice versa.
    let mut engine = Parj::from_store(
        lubm_store(),
        EngineConfig {
            cache: true,
            ..config()
        },
    );
    let q = &lubm::queries()[0].sparql;
    let cold = engine
        .request(q)
        .threads(1)
        .count_only()
        .run()
        .expect("cold run");
    assert_eq!(cold.stats.cache, CacheStatus::Miss);
    for threads in THREADS {
        for morsel in MORSELS {
            let warm = engine
                .request(q)
                .threads(threads)
                .morsel_size(morsel)
                .count_only()
                .run()
                .expect("warm run");
            assert_eq!(warm.count, cold.count);
            assert_eq!(
                warm.stats.cache,
                CacheStatus::ResultHit,
                "threads={threads} morsel={morsel} must hit the shared entry"
            );
        }
    }
}

#[test]
fn early_exit_paths_agree_across_combos() {
    // The guard's cancel/deadline/budget trips must classify the same
    // way under every dispatch configuration — a morsel interleaving
    // may change *where* a worker notices the trip, never *what* the
    // caller observes.
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 2,
        seed: 11,
    });
    // LUBM1 is the widest join in the mix: plenty of rows for the
    // budget to trip on, plenty of work for deadline polls.
    let q = &lubm::queries()[0].sparql;
    let mut engine = Parj::from_store(store, config());
    for threads in THREADS {
        for morsel in MORSELS {
            fn base<'e>(
                e: &'e mut Parj,
                q: &str,
                threads: usize,
                morsel: usize,
            ) -> parj::QueryRequest<'e> {
                e.request(q).threads(threads).morsel_size(morsel).count_only()
            }

            let token = CancelToken::new();
            token.cancel();
            let err = base(&mut engine, q, threads, morsel)
                .cancel(token)
                .run()
                .unwrap_err();
            assert!(
                matches!(err, ParjError::Cancelled { .. }),
                "t={threads} m={morsel}: {err}"
            );

            let err = base(&mut engine, q, threads, morsel)
                .timeout(Duration::ZERO)
                .run()
                .unwrap_err();
            assert!(
                matches!(err, ParjError::DeadlineExceeded { .. }),
                "t={threads} m={morsel}: {err}"
            );

            let err = base(&mut engine, q, threads, morsel).max_rows(1).run().unwrap_err();
            assert!(
                matches!(err, ParjError::BudgetExceeded { .. }),
                "t={threads} m={morsel}: {err}"
            );

            // And the same request unguarded still answers.
            let ok = base(&mut engine, q, threads, morsel).run().expect("unguarded runs");
            assert!(ok.count > 1, "budget test needs multiple rows");
        }
    }
}

#[test]
fn morsel_imbalance_never_exceeds_static_shard_imbalance() {
    // Load-balance claim from the ISSUE: dynamic morsel pulling must
    // not distribute probe work worse than the old static split of
    // the driver domain into one contiguous shard per thread. Both
    // sides are computed from the same per-morsel probe loads — the
    // static split is just the degenerate morsel size ⌈domain/t⌉ —
    // and the dynamic makespan is simulated by list scheduling the
    // morsels in cursor order onto the least-loaded worker, which is
    // exactly what pulling off a shared cursor does when load is
    // proportional to time.
    let mut engine = Parj::from_store(watdiv_store(), config());
    // C2 is the skewed complex shape: a handful of hub keys carry
    // most of the probe work.
    let q = watdiv::basic_workload()
        .into_iter()
        .find(|q| q.name == "C2")
        .expect("C2 exists");
    for threads in [2usize, 4, 9] {
        let fine = engine
            .morsel_loads(&q.sparql, &RunOverrides::threads(threads).with_morsel_size(8))
            .expect("loads run");
        for (plan_idx, loads) in fine.iter().enumerate() {
            let total: u64 = loads.iter().sum();
            if total == 0 {
                continue;
            }
            let ideal = total as f64 / threads as f64;
            // Static contiguous split: group the fine morsels into
            // `threads` equal-width ranges of the driver domain.
            let per = loads.len().div_ceil(threads);
            let static_max = loads
                .chunks(per.max(1))
                .map(|c| c.iter().sum::<u64>())
                .max()
                .unwrap_or(0);
            // Dynamic pull: next free worker takes the next morsel.
            let mut workers = vec![0u64; threads];
            for &l in loads {
                let min = workers
                    .iter_mut()
                    .min()
                    .expect("at least one worker");
                *min += l;
            }
            let dyn_max = workers.into_iter().max().unwrap_or(0);
            let static_imb = static_max as f64 / ideal;
            let dyn_imb = dyn_max as f64 / ideal;
            assert!(
                dyn_imb <= static_imb + 1e-9,
                "plan {plan_idx} threads {threads}: dynamic imbalance \
                 {dyn_imb:.3} worse than static {static_imb:.3}"
            );
        }
    }
}

/// Counts block-compressed replicas across a store's partitions.
fn compressed_replicas(store: &parj::TripleStore) -> usize {
    store
        .partitions()
        .iter()
        .flat_map(|p| [parj::SortOrder::SO, parj::SortOrder::OS].map(|o| p.replica(o)))
        .filter(|r| r.is_compressed())
        .count()
}

/// Value-area bytes across a store's partitions, as physically held.
fn value_bytes(store: &parj::TripleStore) -> usize {
    store
        .partitions()
        .iter()
        .flat_map(|p| [parj::SortOrder::SO, parj::SortOrder::OS].map(|o| p.replica(o).value_bytes()))
        .sum()
}

#[test]
fn compressed_rows_identical_to_uncompressed_across_combos() {
    // Block compression is a physical-layout choice; the contract is
    // that it is invisible in results. Every threads × morsels
    // combination over a compressed store must return the exact rows —
    // same order — of the uncompressed engine.
    let mut raw = Parj::from_store(
        lubm_store(),
        EngineConfig {
            compress_replicas: false,
            ..config()
        },
    );
    let small = EngineConfig {
        // Threshold low enough that most LUBM-1 runs compress.
        compress_min_values: 4,
        ..config()
    };
    let mut pooled = Parj::from_store(lubm_store(), small);
    assert_eq!(compressed_replicas(raw.store()), 0);
    assert!(
        compressed_replicas(pooled.store()) > 0,
        "threshold 4 must compress some replicas"
    );
    // The codec's reason to exist: the value store — what it packs —
    // at least halves, on the very stores whose rows are compared below.
    let (raw_bytes, packed_bytes) = (value_bytes(raw.store()), value_bytes(pooled.store()));
    assert!(
        raw_bytes >= 2 * packed_bytes,
        "value store {raw_bytes} -> {packed_bytes} bytes is below the 2x bar"
    );

    for q in lubm::queries() {
        let baseline = raw
            .request(&q.sparql)
            .threads(1)
            .run()
            .expect("uncompressed baseline")
            .id_rows();
        assert_all_combos_match(&mut pooled, &q.sparql, &q.name, &baseline);
    }
}

#[test]
fn compressed_delta_rows_identical_to_uncompressed_across_combos() {
    // Same contract with a mutation batch layered on top: resident
    // delta runs merging into *compressed* base groups, and inline
    // compaction re-compressing the replacement partitions, must both
    // match a fully uncompressed engine holding the same batch.
    let base = lubm_store();
    let (inserts, deletes) = mutation_batch(&base);
    let mut raw_resident = Parj::from_store(
        lubm_store(),
        EngineConfig {
            delta_compaction_threshold: 0,
            compress_replicas: false,
            ..config()
        },
    );
    let mut packed_resident = Parj::from_store(
        lubm_store(),
        EngineConfig {
            delta_compaction_threshold: 0,
            compress_min_values: 4,
            ..config()
        },
    );
    let mut packed_compacted = Parj::from_store(
        lubm_store(),
        EngineConfig {
            delta_compaction_threshold: 1,
            compress_min_values: 4,
            ..config()
        },
    );
    for engine in [&mut raw_resident, &mut packed_resident, &mut packed_compacted] {
        let out = engine
            .mutate()
            .insert_all(inserts.iter().cloned())
            .delete_all(deletes.iter().cloned())
            .run()
            .expect("mutation batch");
        assert_eq!(out.inserted, inserts.len() as u64);
        assert_eq!(out.deleted, deletes.len() as u64);
    }
    assert!(
        compressed_replicas(packed_resident.store()) > 0,
        "resident engine must keep compressed bases"
    );
    assert!(
        compressed_replicas(packed_compacted.store()) > 0,
        "compaction must re-compress replacement partitions"
    );
    for q in lubm::queries() {
        let baseline = raw_resident
            .request(&q.sparql)
            .threads(1)
            .run()
            .expect("uncompressed baseline")
            .id_rows();
        assert_all_combos_match(&mut packed_resident, &q.sparql, &q.name, &baseline);
        assert_all_combos_match(&mut packed_compacted, &q.sparql, &q.name, &baseline);
    }
}
