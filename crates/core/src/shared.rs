//! A thread-safe engine handle for serving workloads.
//!
//! [`Parj::request`] takes `&mut self` because engines finalize lazily
//! (and rebuild after bulk loads). A server embedding the engine wants
//! the opposite shape: many reader threads issuing queries
//! concurrently, occasional writers applying batches. [`SharedParj`]
//! is a finalized engine behind `&self`. Each request pins the version
//! published when it is built and runs on it with no engine lock — the
//! store is immutable and PARJ's workers need no synchronization. A
//! [`SharedParj::mutate`] batch builds the next version copy-on-write
//! beside the published one and swaps it in, so writers never wait for
//! readers and readers never wait for writers.
//!
//! Concurrent requests all submit to the engine's one persistent
//! [`parj_join::WorkerPool`]: each query's calling thread drives its
//! own job while idle pool workers pull morsels as helpers, so a
//! serving process creates no threads under load.

use parj_obs::MetricsSnapshot;

use crate::engine::Parj;

/// Thread-safe, shareable engine handle. Cheap to share by reference
/// (`&SharedParj` is `Send + Sync`); clone an `Arc<SharedParj>` to share
/// across ownership boundaries.
pub struct SharedParj {
    pub(crate) engine: Parj,
}

impl SharedParj {
    /// Wraps an engine, finalizing it first. Nothing un-finalizes it
    /// afterwards: writes go through [`SharedParj::mutate`], which
    /// publishes new versions of the finalized state.
    pub fn new(mut engine: Parj) -> Self {
        engine.finalize();
        SharedParj { engine }
    }

    /// A point-in-time snapshot of the wrapped engine's metrics
    /// registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// Number of triples visible to queries in the published version.
    pub fn num_triples(&self) -> usize {
        self.engine.snapshot().visible_triples()
    }

    /// Runs the deep structural audit ([`Parj::audit`]) over the
    /// published version, concurrently with queries and writes.
    pub fn audit(&self) -> parj_audit::AuditReport {
        self.engine.snapshot().audit()
    }

    /// Unwraps the inner engine.
    pub fn into_inner(self) -> Parj {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParjError;
    use parj_dict::Term;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn engine() -> Parj {
        let mut e = Parj::builder().threads(1).build();
        e.load_ntriples_str(
            "<http://e/a> <http://e/p> <http://e/b> .\n\
             <http://e/b> <http://e/p> <http://e/c> .\n",
        )
        .unwrap();
        e
    }

    fn count(shared: &SharedParj, q: &str) -> u64 {
        shared.request(q).count_only().run().unwrap().count
    }

    #[test]
    fn concurrent_queries() {
        let shared = Arc::new(SharedParj::new(engine()));
        let q = "SELECT ?x ?z WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z }";
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&shared);
                let q = q.to_string();
                std::thread::spawn(move || s.request(&q).count_only().run().unwrap().count)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }

    #[test]
    fn interleaved_updates_and_queries() {
        let shared = SharedParj::new(engine());
        let q = "SELECT ?x WHERE { ?x <http://e/p> ?y }";
        assert_eq!(count(&shared, q), 2);
        shared
            .mutate()
            .insert(
                Term::iri("http://e/c"),
                Term::iri("http://e/p"),
                Term::iri("http://e/a"),
            )
            .run()
            .unwrap();
        assert_eq!(count(&shared, q), 3);
        assert_eq!(shared.num_triples(), 3);
        let inner = shared.into_inner();
        assert!(inner.is_finalized());
    }

    #[test]
    fn counting_and_auditing_do_not_wait_for_queries() {
        // A three-way star over 8 subjects × 1000 values: 8 · 10⁹ rows,
        // far more than the 3 s deadline that ends the query lets run.
        let mut nt = String::new();
        for s in 0..8 {
            for v in 0..1000 {
                nt.push_str(&format!("<http://e/s{s}> <http://e/p> <http://e/v{v}> .\n"));
            }
        }
        // Threshold 1: the write below compacts the 8000-pair partition.
        let mut e = Parj::builder().threads(1).delta_compaction_threshold(1).build();
        e.load_ntriples_str(&nt).unwrap();
        let shared = Arc::new(SharedParj::new(e));
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared
                    .request(
                        "SELECT ?a ?b ?c WHERE { ?x <http://e/p> ?a . \
                         ?x <http://e/p> ?b . ?x <http://e/p> ?c }",
                    )
                    .timeout(Duration::from_secs(3))
                    .count_only()
                    .run()
            })
        };
        // Let the query start.
        std::thread::sleep(Duration::from_millis(200));
        let t = Instant::now();
        assert_eq!(shared.num_triples(), 8000);
        assert!(shared.audit().is_clean());
        let waited = t.elapsed();
        assert!(waited < Duration::from_secs(1), "waited {waited:?} behind a query");
        // A compacting write does not wait for the running query...
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let t = Instant::now();
                let out = shared
                    .mutate()
                    .insert(
                        Term::iri("http://e/s0"),
                        Term::iri("http://e/p"),
                        Term::iri("http://e/new"),
                    )
                    .run()
                    .unwrap();
                (out.compactions, t.elapsed())
            })
        };
        // ...and a short query issued meanwhile waits for neither.
        let t = Instant::now();
        assert_eq!(count(&shared, "SELECT ?x WHERE { ?x <http://e/p> <http://e/v0> }"), 8);
        let waited = t.elapsed();
        assert!(waited < Duration::from_secs(1), "short query waited {waited:?}");
        let (compactions, wrote) = writer.join().unwrap();
        assert_eq!(compactions, 1);
        assert!(wrote < Duration::from_secs(1), "write waited {wrote:?} behind a query");
        // A query started after the write returned sees the batch.
        assert_eq!(count(&shared, "SELECT ?x WHERE { ?x <http://e/p> <http://e/new> }"), 1);
        assert!(!runner.is_finished(), "the long query outlived every check");
        assert!(matches!(
            runner.join().unwrap(),
            Err(ParjError::DeadlineExceeded { .. })
        ));
    }
}
