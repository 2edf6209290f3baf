//! Loom model of `SharedParj` mutate-vs-read publication.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`. Readers run count
//! queries under the read lock while a writer applies a `mutate()`
//! batch; on every schedule readers must see a finalized engine —
//! either the pre-batch or post-batch triple count, never
//! `ParjError::NotFinalized` and never a torn state. The second model
//! checks that a multi-op batch publishes all-or-nothing.
#![cfg(loom)]

use parj_core::{Parj, ParjError, SharedParj, Term};
use parj_sync::thread;
use parj_sync::Arc;

const Q: &str = "SELECT ?x WHERE { ?x <http://e/p> ?y }";

fn engine() -> Parj {
    let mut e = Parj::builder().threads(1).build();
    e.load_ntriples_str(
        "<http://e/a> <http://e/p> <http://e/b> .\n\
         <http://e/b> <http://e/p> <http://e/c> .\n",
    )
    .unwrap();
    e
}

fn count(shared: &SharedParj) -> Result<u64, ParjError> {
    shared.request(Q).count_only().run().map(|o| o.count)
}

#[test]
fn loom_readers_never_see_unfinalized_updates() {
    loom::model(|| {
        let shared = Arc::new(SharedParj::new(engine()));
        thread::scope(|s| {
            let reader = {
                let sh = Arc::clone(&shared);
                s.spawn(move || count(&sh).expect("reader must never fail"))
            };
            shared
                .mutate()
                .insert(
                    Term::iri("http://e/c"),
                    Term::iri("http://e/p"),
                    Term::iri("http://e/a"),
                )
                .run()
                .expect("mutation");
            let seen = reader.join().unwrap();
            // The read either preceded or followed the batch; both
            // counts are valid, anything else is a torn publication.
            assert!(seen == 2 || seen == 3, "torn read: {seen}");
        });
        assert_eq!(count(&shared).unwrap(), 3);
    });
}

#[test]
fn loom_mutation_batches_publish_atomically() {
    loom::model(|| {
        let shared = Arc::new(SharedParj::new(engine()));
        thread::scope(|s| {
            let reader = {
                let sh = Arc::clone(&shared);
                s.spawn(move || count(&sh).expect("reader must never fail"))
            };
            // One batch, two ops: a reader must observe both or
            // neither — the intermediate count (2 + insert, no delete)
            // would be a torn publication.
            let out = shared
                .mutate()
                .insert(
                    Term::iri("http://e/c"),
                    Term::iri("http://e/p"),
                    Term::iri("http://e/a"),
                )
                .delete(
                    Term::iri("http://e/a"),
                    Term::iri("http://e/p"),
                    Term::iri("http://e/b"),
                )
                .run()
                .expect("mutation");
            assert_eq!((out.inserted, out.deleted), (1, 1));
            let seen = reader.join().unwrap();
            assert!(seen == 2, "torn read: {seen}");
        });
        assert_eq!(count(&shared).unwrap(), 2);
    });
}
