//! Engine-owned persistent worker pool for morsel-driven execution.
//!
//! Queries never create threads; an engine creates one [`WorkerPool`]
//! up front (sized by its thread budget) and every parallel execution
//! *submits a job* onto it. A job is a single
//! participant body — a closure that joins the query's shared morsel
//! cursor and pulls fixed-size driver morsels until the cursor drains
//! (see `exec.rs`). The submitting thread always runs one participant
//! itself, so a query makes progress even when every pool worker is
//! busy with other queries; idle pool workers claim up to `helpers`
//! additional seats on the job and pull morsels alongside it.
//!
//! ## Handshake
//!
//! The pool is a FIFO `VecDeque` of jobs behind one mutex with two
//! condition variables:
//!
//! * `work` — parked workers wait here; submitters notify after
//!   enqueueing a job.
//! * per-job `done` — the submitter waits here until every seat that
//!   was *claimed* has completed.
//!
//! Seat accounting happens entirely under the pool mutex: a worker
//! claims a seat (incrementing the job's `claimed` counter) while
//! holding it, and the submitter closes the job by removing it from
//! the queue while holding it. That mutual exclusion is the whole
//! correctness argument for the rendezvous: after the submitter's
//! removal, no new seat can be claimed, so waiting for
//! `completed == claimed` observes every participant that will ever
//! touch the job's shared state. The protocol is modeled under loom in
//! `tests/loom_pool.rs`.
//!
//! ## Panic containment
//!
//! Participant bodies built by the executor already `catch_unwind`
//! internally and convert panics into `WorkerPanicked` failures of the
//! owning query. The pool adds a second `catch_unwind` around the whole
//! job invocation as a backstop, so a panic can never unwind a pool
//! thread: the worker records it, completes its seat, and returns to
//! service for the next job. The regression suite pins that a panicked
//! query is followed by hundreds of successful ones on the same pool
//! with a stable thread count.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use parj_sync::atomic::{AtomicU64, Ordering};
use parj_sync::{Arc, LockLevel, OrderedCondvar, OrderedMutex};

/// One participant body. Every invocation is an independent worker
/// joining the job's morsel cursor; bodies must therefore be callable
/// concurrently (`Fn`, not `FnOnce`) and tolerate running zero morsels
/// when late to a drained cursor.
pub type Participant = Arc<dyn Fn() + Send + Sync>;

/// A submitted job: the participant body plus seat accounting.
struct Job {
    run: Participant,
    /// Helper seats pool workers may claim (the submitter's own
    /// participation is not a seat).
    seats: usize,
    meta: OrderedMutex<JobMeta>,
    done: OrderedCondvar,
}

/// Seat state, mutated only while holding `Job::meta` (claims
/// additionally happen under the pool mutex — see module docs).
#[derive(Default)]
struct JobMeta {
    claimed: usize,
    completed: usize,
}

struct State {
    queue: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: OrderedMutex<State>,
    work: OrderedCondvar,
    jobs: AtomicU64,
    helper_joins: AtomicU64,
    busy_micros: AtomicU64,
    park_micros: AtomicU64,
    panics_contained: AtomicU64,
}

/// Point-in-time counters of one pool, for the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool was created with (stable for its whole
    /// lifetime — the panic-containment invariant).
    pub workers: u64,
    /// Jobs submitted via [`WorkerPool::run`].
    pub jobs: u64,
    /// Helper seats actually claimed by pool workers across all jobs.
    pub helper_joins: u64,
    /// Cumulative wall-clock time workers spent running participants.
    pub busy_micros: u64,
    /// Cumulative wall-clock time workers spent parked waiting for work.
    pub park_micros: u64,
    /// Jobs currently queued and still accepting helpers.
    pub queue_depth: u64,
    /// Panics that escaped a participant body and were contained by the
    /// pool's backstop handler (the executor catches its own panics, so
    /// this stays 0 unless a participant wrapper itself fails).
    pub panics_contained: u64,
}

/// A persistent set of parked worker threads that execute submitted
/// participant bodies. Created once per engine; dropped (joining every
/// thread) when the engine is dropped.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<parj_sync::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers.max(1)` parked threads.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: OrderedMutex::new(
                LockLevel::PoolState,
                "pool.state",
                State {
                    queue: VecDeque::new(),
                    shutdown: false,
                },
            ),
            work: OrderedCondvar::new(LockLevel::PoolState, "pool.work"),
            jobs: AtomicU64::new(0),
            helper_joins: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            park_micros: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let s = Arc::clone(&shared);
                parj_sync::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads (fixed at construction).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `participant` on the calling thread plus up to `helpers`
    /// pool workers, returning once every participant that joined has
    /// finished. The caller always participates, so the job completes
    /// even when the pool is saturated by other queries; helpers are
    /// opportunistic.
    pub fn run(&self, helpers: usize, participant: Participant) {
        // ordering: Relaxed — stats counter, read only by stats().
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        if helpers == 0 {
            participant();
            return;
        }
        // Job meta sits one level *below* the pool state: workers claim
        // seats (locking meta) while holding the pool mutex.
        let job = Arc::new(Job {
            run: Arc::clone(&participant),
            seats: helpers,
            meta: OrderedMutex::new(LockLevel::PoolJob, "pool.job_meta", JobMeta::default()),
            done: OrderedCondvar::new(LockLevel::PoolJob, "pool.job_done"),
        });
        {
            let mut state = self.shared.state.lock();
            state.queue.push_back(Arc::clone(&job));
        }
        self.shared.work.notify_all();
        participant();
        // Close the job: removing it from the queue under the pool
        // mutex guarantees no further seat claims (claims hold the same
        // mutex), making `completed == claimed` a sound rendezvous.
        {
            let mut state = self.shared.state.lock();
            if let Some(pos) = state.queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
                state.queue.remove(pos);
            }
        }
        let mut meta = job.meta.lock();
        // ordering: Relaxed — stats counter, read only by stats().
        self.shared
            .helper_joins
            .fetch_add(meta.claimed as u64, Ordering::Relaxed);
        while meta.completed < meta.claimed {
            meta = job.done.wait(meta);
        }
    }

    /// Counter snapshot for the metrics registry.
    pub fn stats(&self) -> PoolStats {
        let queue_depth = self.shared.state.lock().queue.len() as u64;
        // ordering: Relaxed — monotonic stats counters; a snapshot
        // needs no cross-counter consistency.
        PoolStats {
            workers: self.handles.len() as u64,
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            helper_joins: self.shared.helper_joins.load(Ordering::Relaxed),
            busy_micros: self.shared.busy_micros.load(Ordering::Relaxed),
            // ordering: Relaxed — same monotonic-counter argument.
            park_micros: self.shared.park_micros.load(Ordering::Relaxed),
            queue_depth,
            panics_contained: self.shared.panics_contained.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            // A worker thread's body catches participant panics, so a
            // join error would mean the loop itself failed; there is
            // nothing useful to do with it during drop.
            let _ = h.join();
        }
    }
}

/// Claims one seat on the frontmost job that still has seats, popping
/// jobs whose seats are exhausted. Runs under the pool mutex.
fn claim_front(state: &mut State) -> Option<Arc<Job>> {
    while let Some(front) = state.queue.front() {
        let job = Arc::clone(front);
        let mut meta = job.meta.lock();
        if meta.claimed >= job.seats {
            drop(meta);
            state.queue.pop_front();
            continue;
        }
        meta.claimed += 1;
        let full = meta.claimed >= job.seats;
        drop(meta);
        if full {
            state.queue.pop_front();
        }
        return Some(job);
    }
    None
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock();
    loop {
        if state.shutdown {
            return;
        }
        match claim_front(&mut state) {
            Some(job) => {
                drop(state);
                let started = Instant::now();
                // Backstop only: executor-built participants catch
                // their own panics and fail just the owning query.
                // Whatever happens, the seat completes and the worker
                // returns to service.
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| (job.run)()));
                // ordering: Relaxed — stats counters, read only by stats().
                shared
                    .busy_micros
                    .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
                if outcome.is_err() {
                    // ordering: Relaxed — stats counter, read only by stats().
                    shared.panics_contained.fetch_add(1, Ordering::Relaxed);
                }
                {
                    let mut meta = job.meta.lock();
                    meta.completed += 1;
                }
                job.done.notify_all();
                state = shared.state.lock();
            }
            None => {
                let parked = Instant::now();
                state = shared.work.wait(state);
                // ordering: Relaxed — stats counter, read only by stats().
                shared
                    .park_micros
                    .fetch_add(parked.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_sync::atomic::AtomicUsize;

    fn counting_participant(
        cursor: &Arc<AtomicUsize>,
        hits: &Arc<AtomicUsize>,
        morsels: usize,
    ) -> Participant {
        let cursor = Arc::clone(cursor);
        let hits = Arc::clone(hits);
        Arc::new(move || loop {
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            if m >= morsels {
                return;
            }
            hits.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn every_morsel_processed_exactly_once() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let cursor = Arc::new(AtomicUsize::new(0));
            let hits = Arc::new(AtomicUsize::new(0));
            let morsels = 1 + round % 17;
            pool.run(2, counting_participant(&cursor, &hits, morsels));
            assert_eq!(hits.load(Ordering::Relaxed), morsels);
        }
    }

    #[test]
    fn zero_helpers_runs_inline() {
        let pool = WorkerPool::new(1);
        let cursor = Arc::new(AtomicUsize::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run(0, counting_participant(&cursor, &hits, 5));
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(pool.stats().helper_joins, 0);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                parj_sync::thread::spawn(move || {
                    for _ in 0..25 {
                        let cursor = Arc::new(AtomicUsize::new(0));
                        let hits = Arc::new(AtomicUsize::new(0));
                        pool.run(2, counting_participant(&cursor, &hits, 9));
                        assert_eq!(hits.load(Ordering::Relaxed), 9);
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().expect("submitter finished");
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 100);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn pool_survives_participant_panic() {
        let pool = WorkerPool::new(2);
        // A raw panicking participant exercises the pool's backstop
        // handler (the executor's participants catch their own).
        // The submitter's own invocation must not panic, so the body
        // panics only on pool-worker threads (a helper can reach the
        // body before the submitter does, so call order cannot tell
        // them apart).
        let submitter = std::thread::current().id();
        let body: Participant = Arc::new(move || {
            if std::thread::current().id() != submitter {
                panic!("helper dies");
            }
        });
        pool.run(2, body);
        let contained = pool.stats().panics_contained;
        // Helpers may or may not have claimed before the job closed.
        assert!(contained <= 2);
        // The pool still works afterwards.
        let cursor = Arc::new(AtomicUsize::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run(2, counting_participant(&cursor, &hits, 7));
        assert_eq!(hits.load(Ordering::Relaxed), 7);
        assert_eq!(pool.stats().workers, 2);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        let cursor = Arc::new(AtomicUsize::new(0));
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run(3, counting_participant(&cursor, &hits, 100));
        drop(pool); // must not hang or leak
    }
}
