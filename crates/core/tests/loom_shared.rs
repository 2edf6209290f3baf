//! Loom model of the engine's publish protocol, on a shared `Arc<Parj>`.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`. A request pins the
//! version published when it is built; a `mutate()` batch builds the
//! next version beside it under the writer lock and publishes it with
//! one swap. On every schedule: a reader sees one whole version — a
//! batch all or nothing, never torn; concurrent batches serialize, so
//! none is lost; and a read built after `mutate()` returned sees it.
#![cfg(loom)]

use parj_core::{LoadSource, OnParseError, Parj, RdfFormat, Term};
use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::thread;
use parj_sync::Arc;

const Q: &str = "SELECT ?x ?y WHERE { ?x <http://e/p> ?y }";

fn engine() -> Parj {
    let mut loader = Parj::builder().threads(1).loader();
    loader
        .load(
            LoadSource::Text(
                "<http://e/a> <http://e/p> <http://e/b> .\n\
                 <http://e/b> <http://e/p> <http://e/c> .\n",
            ),
            RdfFormat::NTriples,
            OnParseError::Abort,
        )
        .unwrap();
    loader.finish()
}

fn iri(s: &str) -> Term {
    Term::iri(format!("http://e/{s}"))
}

/// The visible `p` edges, as sorted `(subject, object)` local names.
fn edges(shared: &Parj) -> Vec<(String, String)> {
    let out = shared.request(Q).run().expect("reader must never fail");
    let name = |t: &Term| {
        let text = t.to_string();
        text.trim_start_matches("<http://e/")
            .trim_end_matches('>')
            .to_string()
    };
    let mut rows: Vec<_> = out
        .term_rows()
        .unwrap()
        .iter()
        .map(|r| (name(&r[0]), name(&r[1])))
        .collect();
    rows.sort();
    rows
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(s, o)| (s.to_string(), o.to_string()))
        .collect()
}

#[test]
fn loom_readers_see_whole_batches() {
    loom::model(|| {
        let shared = Arc::new(engine());
        let before = pairs(&[("a", "b"), ("b", "c")]);
        let after = pairs(&[("b", "c"), ("c", "a")]);
        thread::scope(|s| {
            let reader = {
                let sh = Arc::clone(&shared);
                s.spawn(move || edges(&sh))
            };
            // One batch, two ops: a reader sees both or neither — one
            // without the other would be a torn publication.
            let out = shared
                .mutate()
                .insert(iri("c"), iri("p"), iri("a"))
                .delete(iri("a"), iri("p"), iri("b"))
                .run()
                .expect("mutation");
            assert_eq!((out.inserted, out.deleted), (1, 1));
            let seen = reader.join().unwrap();
            assert!(seen == before || seen == after, "torn read: {seen:?}");
        });
        assert_eq!(edges(&shared), after);
    });
}

#[test]
fn loom_batches_serialize_and_later_reads_see_them() {
    loom::model(|| {
        let shared = Arc::new(engine());
        // Batches that have returned, published for the reader.
        let returned = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            let writers: Vec<_> = ["x", "y"]
                .into_iter()
                .map(|o| {
                    let sh = Arc::clone(&shared);
                    let returned = Arc::clone(&returned);
                    s.spawn(move || {
                        sh.mutate()
                            .insert(iri("a"), iri("p"), iri(o))
                            .run()
                            .expect("mutation");
                        // ordering: Release — pairs with the reader's
                        // Acquire load; a reader that counts this batch
                        // as returned builds its request after it.
                        returned.fetch_add(1, Ordering::Release);
                    })
                })
                .collect();
            let reader = {
                let sh = Arc::clone(&shared);
                let returned = Arc::clone(&returned);
                s.spawn(move || {
                    // ordering: Acquire — pairs with the writers'
                    // Release increments.
                    let floor = returned.load(Ordering::Acquire);
                    let seen = edges(&sh).len();
                    assert!(
                        (2 + floor..=4).contains(&seen),
                        "read built after {floor} returned batches saw {seen} edges"
                    );
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            reader.join().unwrap();
        });
        // Neither batch was lost to the other.
        assert_eq!(edges(&shared).len(), 4);
    });
}
