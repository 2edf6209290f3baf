//! Loom model of the worker pool's submit/pull/park/shutdown handshake.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`. The executor's
//! determinism and rendezvous arguments both lean on one pool
//! invariant: when [`WorkerPool::run`] returns, every participant that
//! will *ever* run the job has finished — the submitter closed the job
//! under the pool mutex, so no late worker can claim a seat and touch
//! the query's shared state afterwards. These models drive real
//! morsel-cursor participants through the pool under injected
//! schedules and check that invariant plus full, exactly-once morsel
//! coverage and clean shutdown (the pool drop at the end of every
//! model joins all workers; a leaked participant would hang the test).

#![cfg(loom)]

use parj_join::WorkerPool;
use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{thread, Arc};

/// A counting participant over `morsels` work units: the loom-visible
/// skeleton of `exec.rs`'s `Run::participate`. Each claimed morsel
/// increments its slot in `hits` exactly once.
fn cursor_participant(
    cursor: &Arc<AtomicUsize>,
    hits: &Arc<Vec<AtomicUsize>>,
) -> parj_join::Participant {
    let cursor = Arc::clone(cursor);
    let hits = Arc::clone(hits);
    Arc::new(move || loop {
        // ordering: Relaxed suffices — the cursor only partitions the
        // morsel space; completion visibility comes from the pool's
        // rendezvous mutex, which is exactly what this model checks.
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = hits.get(m) else { return };
        slot.fetch_add(1, Ordering::Relaxed);
    })
}

/// One submitter, one pool worker helping: whatever the interleaving
/// of park, wake, claim, and pull, `run` must not return before every
/// morsel was claimed exactly once.
#[test]
fn loom_every_morsel_runs_exactly_once() {
    loom::model(|| {
        let pool = WorkerPool::new(1);
        let cursor = Arc::new(AtomicUsize::new(0));
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
        pool.run(1, cursor_participant(&cursor, &hits));
        for (m, slot) in hits.iter().enumerate() {
            // ordering: Relaxed read is fine post-rendezvous; run()'s
            // mutex release/acquire ordered all participant writes.
            assert_eq!(slot.load(Ordering::Relaxed), 1, "morsel {m} hit count");
        }
        assert!(pool.stats().jobs >= 1);
    });
}

/// Two submitters race for one helper: jobs queue FIFO, the helper may
/// land on either or neither, and both queries must still see their
/// own cursor fully drained on return — no cross-job interference, no
/// lost wakeup leaving a submitter parked forever.
#[test]
fn loom_concurrent_submitters_share_one_worker() {
    loom::model(|| {
        let pool = Arc::new(WorkerPool::new(1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    let cursor = Arc::new(AtomicUsize::new(0));
                    let hits: Arc<Vec<AtomicUsize>> =
                        Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
                    pool.run(1, cursor_participant(&cursor, &hits));
                    for slot in hits.iter() {
                        // ordering: post-rendezvous read, see above.
                        assert_eq!(slot.load(Ordering::Relaxed), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter must not panic");
        }
    });
}

/// Shutdown races a parked worker: dropping the pool right after a job
/// completes must wake the worker out of its park and join it, never
/// deadlock, and never let it claim a seat on a closed job.
#[test]
fn loom_shutdown_wakes_parked_workers() {
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let cursor = Arc::new(AtomicUsize::new(0));
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..1).map(|_| AtomicUsize::new(0)).collect());
        pool.run(2, cursor_participant(&cursor, &hits));
        // ordering: post-rendezvous read, see above.
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        drop(pool); // joins both workers; a hang here fails the model
    });
}
