//! Loom model of the parallel staging + partition-build pipeline.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`. The store's parallel
//! phases all follow the same pattern — an atomic ticket counter, slot
//! mutexes for publication, a scope join edge — and claim byte-for-byte
//! determinism at any thread count. The model re-runs staging and
//! building under injected schedules and compares the snapshot bytes
//! against a serial oracle on every one.
#![cfg(loom)]

use parj_dict::{Term, TermRef};
use parj_store::{StoreBuilder, StoreOptions};

fn triples(n: usize) -> Vec<(Term, Term, Term)> {
    (0..n)
        .map(|i| {
            (
                Term::iri(format!("http://e/s{}", i % 7)),
                Term::iri(format!("http://e/p{}", i % 3)),
                Term::iri(format!("http://e/o{}", (i + 2) % 5)),
            )
        })
        .collect()
}

#[test]
fn loom_parallel_staging_matches_serial_bytes() {
    // Serial oracle, computed once outside the model.
    let data = triples(24);
    let mut serial = StoreBuilder::new();
    for (s, p, o) in &data {
        serial.add_term_triple(s, p, o);
    }
    let mut serial_dict = Vec::new();
    serial.dict().encode_into(&mut serial_dict);
    let serial_store = serial.build().to_snapshot_bytes();

    loom::model(|| {
        let chunks: Vec<Vec<_>> = data
            .chunks(7)
            .map(|c| {
                c.iter()
                    .map(|(s, p, o)| (TermRef::from(s), TermRef::from(p), TermRef::from(o)))
                    .collect()
            })
            .collect();
        let mut b = StoreBuilder::new();
        b.add_triples_parallel(chunks, 3);
        let mut dict_bytes = Vec::new();
        b.dict().encode_into(&mut dict_bytes);
        assert_eq!(
            dict_bytes, serial_dict,
            "dictionary diverged on this schedule"
        );
        let store = b.build_with(StoreOptions {
            build_threads: 2,
            ..StoreOptions::default()
        });
        assert_eq!(
            store.to_snapshot_bytes(),
            serial_store,
            "store bytes diverged on this schedule"
        );
    });
}
