//! A thread-safe engine handle for serving workloads.
//!
//! [`Parj::request`] takes `&mut self` because engines finalize lazily
//! (and rebuild after updates). A server embedding the engine wants the
//! opposite shape: many reader threads issuing queries concurrently,
//! occasional writers loading data. [`SharedParj`] wraps a finalized
//! engine in a `parj_sync::RwLock` with a [`SharedParj::request`]
//! path that runs under a read lock — multiple queries proceed truly in
//! parallel (the store itself is immutable and PARJ's workers need no
//! synchronization; the lock only fences out rebuilds).
//!
//! Concurrent requests all submit to the engine's one persistent
//! [`parj_join::WorkerPool`]: each query's calling thread drives its
//! own job while idle pool workers pull morsels as helpers, so a
//! serving process creates no threads under load.

use parj_sync::{LockLevel, OrderedRwLock};

use parj_obs::MetricsSnapshot;

use crate::engine::Parj;
use crate::error::ParjError;

/// Thread-safe, shareable engine handle. Cheap to share by reference
/// (`&SharedParj` is `Send + Sync`); clone an `Arc<SharedParj>` to share
/// across ownership boundaries.
pub struct SharedParj {
    inner: OrderedRwLock<Parj>,
}

impl SharedParj {
    /// Wraps an engine, finalizing it first so reads never need the
    /// write lock.
    pub fn new(mut engine: Parj) -> Self {
        engine.finalize();
        SharedParj {
            // Engine level: held for a whole query (read) or mutation
            // batch (write); every pool/cache/staging lock sits below.
            inner: OrderedRwLock::new(LockLevel::Engine, "engine.shared", engine),
        }
    }

    /// Runs `f` against the engine under the read lock (the request
    /// API's shared execution path).
    pub(crate) fn with_read<R>(&self, f: impl FnOnce(&Parj) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` against the engine under the write lock (the mutation
    /// API's shared execution path). Mutation batches never un-finalize
    /// the engine, so readers never observe it un-finalized.
    pub(crate) fn with_write<R>(&self, f: impl FnOnce(&mut Parj) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// A point-in-time snapshot of the wrapped engine's metrics
    /// registry (read lock; concurrent with queries).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.read().metrics_snapshot()
    }

    /// Number of stored triples.
    pub fn num_triples(&self) -> usize {
        self.inner.write().num_triples()
    }

    /// Whether the wrapped engine is finalized and ready to answer
    /// `&self` queries. Read lock only — safe to call from a readiness
    /// probe while queries are in flight (unlike
    /// [`SharedParj::num_triples`], which takes the write lock because
    /// counting may force a finalize).
    pub fn is_finalized(&self) -> bool {
        self.inner.read().is_finalized()
    }

    /// Number of stored triples if the engine is finalized, without
    /// taking the write lock; `Err(ParjError::NotFinalized)` otherwise.
    /// The non-blocking shape a readiness probe needs: it must observe,
    /// not force, readiness.
    pub fn try_num_triples(&self) -> Result<usize, ParjError> {
        let guard = self.inner.read();
        if guard.is_finalized() {
            Ok(guard.num_triples_ref())
        } else {
            Err(ParjError::NotFinalized)
        }
    }

    /// Runs the deep structural audit ([`Parj::audit`]). Takes the
    /// write lock: audits are rare and the engine may need to finalize
    /// first.
    pub fn audit(&self) -> parj_audit::AuditReport {
        self.inner.write().audit()
    }

    /// Unwraps the inner engine.
    pub fn into_inner(self) -> Parj {
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;
    use std::sync::Arc;

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
}
