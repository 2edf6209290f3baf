//! Lock-hierarchy enforcement: levelled lock wrappers with a runtime
//! lock-order witness.
//!
//! Every `Mutex`/`RwLock`/`Condvar` in a product crate is declared at a
//! [`LockLevel`] from one workspace-wide numeric hierarchy (see
//! DESIGN.md §17 for the full table). The discipline is simple and
//! total: **a thread may only acquire a lock at a strictly lower level
//! than every lock it already holds**. Because the hierarchy is a
//! fixed total order, following the rule makes deadlock by lock-order
//! inversion impossible — there is no pair of threads that can each
//! hold what the other wants.
//!
//! Three mechanisms triangulate the same invariant:
//!
//! * **Runtime witness** (`debug_assertions` builds only): a
//!   thread-local stack of held `(level, name)` pairs. Acquiring at a
//!   level `>=` the most recent still-held lock panics immediately,
//!   naming both locks. Release builds compile the witness down to
//!   nothing.
//! * **Acquisition-order graph**: every nested acquisition records a
//!   `held → acquired` edge into a process-global graph. The graph is
//!   checked for cycles at every witness-tracked thread's exit (debug
//!   builds) and explicitly via
//!   [`assert_acquisition_graph_acyclic`], which the test suites call;
//!   a cycle found at thread exit is reported on the next explicit
//!   check rather than panicking inside a TLS destructor.
//! * **Static pass**: `cargo xtask locks` denies raw `std::sync` /
//!   `parj_sync::{Mutex, RwLock, Condvar}` in product crates, requires
//!   a `LockLevel` at every wrapper construction, and cross-checks the
//!   declared hierarchy against DESIGN.md §17.
//!
//! In all builds (release included) the wrappers record **contention
//! wait time** per level into process-global counters: the fast path is
//! a `try_lock`, and only when that fails does the slow path time the
//! blocking acquisition. [`lock_wait_totals`] feeds the
//! `parj_lock_wait_micros{level=...}` metric family at snapshot time.

use std::time::Instant;

use crate::imp;

/// The workspace-wide lock hierarchy, highest first. A thread may
/// acquire a lock only at a strictly lower level than every lock it
/// already holds; two locks that are ever held together must therefore
/// sit at *different* levels, ordered outer-above-inner.
///
/// The numeric values are the authority: `cargo xtask locks` checks
/// they are pairwise distinct (a duplicate would collapse two levels
/// into an unordered — cyclic — pair) and that this enum matches the
/// lock table in DESIGN.md §17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockLevel {
    /// `parj-server`'s connection hand-off queue (`server.handoff`, with
    /// the `server.handoff_ready` and `server.sweep_stop` condvars);
    /// never held together with another lock.
    ServerHandoff = 95,
    /// `parj-server`'s live-query registry (`server.live_tokens`).
    Server = 90,
    /// Per-client token-bucket quota table (`admission.quota_buckets`).
    AdmissionQuota = 85,
    /// Retry-After latency moving window (`admission.latency_window`).
    AdmissionWindow = 80,
    /// The engine's writer lock (`engine.writer`) — held for a whole
    /// mutation batch; queries never take it.
    Engine = 70,
    /// The engine's published-version cell (`engine.snapshot`) — held
    /// only to clone or swap one `Arc`.
    EngineSnapshot = 60,
    /// One LRU shard of the plan/result cache (`cache.shard`).
    CacheShard = 55,
    /// The worker pool's queue + shutdown state (`pool.state`, with the
    /// `pool.work` condvar); held while claiming seats on a job.
    PoolState = 45,
    /// Per-job seat accounting (`pool.job_meta`, with the
    /// `pool.job_done` condvar); acquired under `pool.state`.
    PoolJob = 40,
    /// The executor's participant output collection
    /// (`exec.output`).
    ExecOutput = 35,
    /// EXPLAIN profile capture (`engine.explain_profiles`).
    Profile = 30,
    /// Short-lived parallel-staging publication locks (loader / dict /
    /// store slot mutexes and pair tables); leaf locks, never nested
    /// in each other.
    Staging = 20,
    /// Observability: `GaugeVec` label maps (`obs.gauge_vec`) — the
    /// floor of the hierarchy, safe to touch from anywhere.
    Metrics = 10,
}

impl LockLevel {
    /// Every level, highest (outermost) first.
    pub const ALL: [LockLevel; 13] = [
        LockLevel::ServerHandoff,
        LockLevel::Server,
        LockLevel::AdmissionQuota,
        LockLevel::AdmissionWindow,
        LockLevel::Engine,
        LockLevel::EngineSnapshot,
        LockLevel::CacheShard,
        LockLevel::PoolState,
        LockLevel::PoolJob,
        LockLevel::ExecOutput,
        LockLevel::Profile,
        LockLevel::Staging,
        LockLevel::Metrics,
    ];

    /// Stable label for metrics and diagnostics.
    pub const fn as_str(self) -> &'static str {
        match self {
            LockLevel::ServerHandoff => "server_handoff",
            LockLevel::Server => "server",
            LockLevel::AdmissionQuota => "admission_quota",
            LockLevel::AdmissionWindow => "admission_window",
            LockLevel::Engine => "engine",
            LockLevel::EngineSnapshot => "engine_snapshot",
            LockLevel::CacheShard => "cache_shard",
            LockLevel::PoolState => "pool_state",
            LockLevel::PoolJob => "pool_job",
            LockLevel::ExecOutput => "exec_output",
            LockLevel::Profile => "profile",
            LockLevel::Staging => "staging",
            LockLevel::Metrics => "metrics",
        }
    }

    /// Position of this level in [`LockLevel::ALL`] (used to index the
    /// per-level wait counters).
    const fn index(self) -> usize {
        match self {
            LockLevel::ServerHandoff => 0,
            LockLevel::Server => 1,
            LockLevel::AdmissionQuota => 2,
            LockLevel::AdmissionWindow => 3,
            LockLevel::Engine => 4,
            LockLevel::EngineSnapshot => 5,
            LockLevel::CacheShard => 6,
            LockLevel::PoolState => 7,
            LockLevel::PoolJob => 8,
            LockLevel::ExecOutput => 9,
            LockLevel::Profile => 10,
            LockLevel::Staging => 11,
            LockLevel::Metrics => 12,
        }
    }
}

impl std::fmt::Display for LockLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.as_str(), *self as u8)
    }
}

/// Per-level cumulative contention wait, all builds. The witness and
/// graph bookkeeping below are raw `std` primitives on purpose: they
/// instrument the locks, so they must not themselves be loom-modeled
/// (and a loom type inside the checker would recurse the scheduler).
mod waits {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::LockLevel;

    const N: usize = LockLevel::ALL.len();
    // The repeat-element array-init idiom for atomics on rust 1.75
    // (inline-const repeats land in 1.79); each array slot gets its
    // own copy, the const itself is never shared.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    // Accumulated in nanoseconds so many sub-microsecond waits still
    // add up instead of each truncating to zero; the exported unit is
    // microseconds (divided once at read time).
    static WAIT_NANOS: [AtomicU64; N] = [ZERO; N];

    pub(super) fn record(level: LockLevel, nanos: u64) {
        WAIT_NANOS[level.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    pub(super) fn totals() -> Vec<(&'static str, u64)> {
        LockLevel::ALL
            .iter()
            .map(|&l| {
                (
                    l.as_str(),
                    WAIT_NANOS[l.index()].load(Ordering::Relaxed) / 1_000,
                )
            })
            .collect()
    }
}

/// Cumulative microseconds threads spent *blocked* acquiring ordered
/// locks, per level, process-wide since start. Uncontended
/// acquisitions (the `try_lock` fast path) cost and record nothing.
/// Feeds the `parj_lock_wait_micros` metric family.
pub fn lock_wait_totals() -> Vec<(&'static str, u64)> {
    waits::totals()
}

/// The acquisition-order graph: directed `held → acquired` edges over
/// lock names, fed by the witness in debug builds.
mod graph {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Mutex, OnceLock};

    type Edges = BTreeMap<&'static str, BTreeSet<&'static str>>;

    fn edges() -> &'static Mutex<Edges> {
        static EDGES: OnceLock<Mutex<Edges>> = OnceLock::new();
        EDGES.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    // Only the debug-build witness feeds the graph; release builds
    // still export `recorded_edges`/the cycle check (they just see an
    // empty graph), so the recorder alone goes unused there.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(super) fn record(held: &'static str, acquired: &'static str) {
        let mut g = match edges().lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        g.entry(held).or_default().insert(acquired);
    }

    /// Every recorded `held → acquired` edge, sorted.
    pub fn recorded_edges() -> Vec<(&'static str, &'static str)> {
        let g = match edges().lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        g.iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
            .collect()
    }

    /// Depth-first cycle search; returns one cycle as a name path
    /// (`a → b → a`) if any exists.
    pub(super) fn find_cycle() -> Option<Vec<&'static str>> {
        let g = match edges().lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let mut done: BTreeSet<&'static str> = BTreeSet::new();
        for &start in g.keys() {
            if done.contains(start) {
                continue;
            }
            // Iterative DFS with an explicit path for cycle reporting.
            let mut path: Vec<&'static str> = vec![start];
            let mut iters: Vec<Vec<&'static str>> = vec![g
                .get(start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()];
            while let Some(frame) = iters.last_mut() {
                match frame.pop() {
                    Some(next) => {
                        if let Some(pos) = path.iter().position(|&n| n == next) {
                            let mut cycle: Vec<&'static str> = path[pos..].to_vec();
                            cycle.push(next);
                            return Some(cycle);
                        }
                        if done.contains(next) {
                            continue;
                        }
                        path.push(next);
                        iters.push(
                            g.get(next)
                                .map(|s| s.iter().copied().collect())
                                .unwrap_or_default(),
                        );
                    }
                    None => {
                        iters.pop();
                        if let Some(n) = path.pop() {
                            done.insert(n);
                        }
                    }
                }
            }
        }
        None
    }
}

pub use graph::recorded_edges;

/// Set by a thread-exit check that found a cycle (panicking inside a
/// TLS destructor would abort, so the finding is deferred to the next
/// explicit assertion instead).
static GRAPH_POISONED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Panics if the recorded acquisition-order graph contains a cycle (or
/// if a thread-exit check already found one). The level discipline
/// makes a cycle unreachable through the wrappers; this is the
/// belt-and-braces check the test suites run at process exit, and it
/// is what a future escape hatch (a lock acquired outside the
/// wrappers) would trip.
pub fn assert_acquisition_graph_acyclic() {
    if GRAPH_POISONED.load(std::sync::atomic::Ordering::Relaxed) {
        panic!("lock acquisition-order graph: a cycle was detected at a thread's exit");
    }
    if let Some(cycle) = graph::find_cycle() {
        panic!(
            "lock acquisition-order graph contains a cycle: {}",
            cycle.join(" -> ")
        );
    }
}

/// The runtime witness: a thread-local stack of held locks, active only
/// under `debug_assertions`.
#[cfg(debug_assertions)]
mod witness {
    use std::cell::RefCell;

    use super::LockLevel;

    /// Runs the graph cycle check when a witness-tracked thread exits.
    struct ExitCheck;

    impl Drop for ExitCheck {
        fn drop(&mut self) {
            // A panic in a TLS destructor aborts the process; record
            // the finding for the next explicit assertion instead.
            if super::graph::find_cycle().is_some() {
                super::GRAPH_POISONED.store(true, std::sync::atomic::Ordering::Relaxed);
                eprintln!(
                    "parj-sync witness: lock acquisition-order graph cycle detected at \
                     thread exit; assert_acquisition_graph_acyclic() will panic"
                );
            }
        }
    }

    thread_local! {
        static HELD: RefCell<Vec<(LockLevel, &'static str)>> = const { RefCell::new(Vec::new()) };
        static EXIT_CHECK: ExitCheck = const { ExitCheck };
    }

    pub(super) fn on_acquire(level: LockLevel, name: &'static str) {
        HELD.with(|h| {
            let mut stack = h.borrow_mut();
            if let Some(&(top_level, top_name)) = stack.last() {
                if level >= top_level {
                    // Deliberately before the push and before the
                    // graph record: a violation must not contaminate
                    // either structure.
                    panic!(
                        "lock-order violation: acquiring `{name}` (level {level}) while \
                         holding `{top_name}` (level {top_level}); a lock may only be \
                         acquired at a strictly lower level than every lock already held"
                    );
                }
                super::graph::record(top_name, name);
            }
            stack.push((level, name));
        });
        // Touch the sentinel so this thread runs the exit check.
        EXIT_CHECK.with(|_| {});
    }

    pub(super) fn on_release(level: LockLevel, name: &'static str) {
        HELD.with(|h| {
            let mut stack = h.borrow_mut();
            // Guards may legally be dropped out of LIFO order; remove
            // the most recent matching entry. (The stack stays sorted
            // strictly descending either way, so `last()` remains the
            // minimum held level.)
            if let Some(pos) = stack.iter().rposition(|&(l, n)| l == level && n == name) {
                stack.remove(pos);
            }
        });
    }

    /// Names of the locks this thread currently holds, outermost first.
    pub fn held_locks() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|&(_, n)| n).collect())
    }
}

#[cfg(debug_assertions)]
pub use witness::held_locks;

/// Release builds: the witness compiles to nothing.
#[cfg(not(debug_assertions))]
mod witness {
    use super::LockLevel;

    #[inline(always)]
    pub(super) fn on_acquire(_level: LockLevel, _name: &'static str) {}

    #[inline(always)]
    pub(super) fn on_release(_level: LockLevel, _name: &'static str) {}
}

/// A [`imp::Mutex`] that carries its place in the workspace lock
/// hierarchy. See the module docs for the acquisition discipline.
pub struct OrderedMutex<T> {
    level: LockLevel,
    name: &'static str,
    inner: imp::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex named `name` at `level` around `value`.
    pub fn new(level: LockLevel, name: &'static str, value: T) -> Self {
        OrderedMutex {
            level,
            name,
            inner: imp::Mutex::new(value),
        }
    }

    /// Acquires the lock, enforcing the level discipline in debug
    /// builds and recording contention wait time in all builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        witness::on_acquire(self.level, self.name);
        let inner = match self.inner.try_lock() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.lock();
                waits::record(self.level, t0.elapsed().as_nanos() as u64);
                g
            }
        };
        OrderedMutexGuard {
            inner: Some(inner),
            level: self.level,
            name: self.name,
        }
    }

    /// This lock's declared level.
    pub fn level(&self) -> LockLevel {
        self.level
    }

    /// This lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

/// RAII guard from [`OrderedMutex::lock`]; pops the witness entry on
/// drop.
pub struct OrderedMutexGuard<'a, T> {
    /// `None` only transiently inside [`OrderedCondvar::wait`], which
    /// takes the inner guard out before blocking.
    inner: Option<imp::MutexGuard<'a, T>>,
    level: LockLevel,
    name: &'static str,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            witness::on_release(self.level, self.name);
        }
    }
}

/// A [`imp::RwLock`] that carries its place in the workspace lock
/// hierarchy. Readers and writers follow the same level discipline —
/// the hierarchy orders lock *objects*, not access modes.
pub struct OrderedRwLock<T> {
    level: LockLevel,
    name: &'static str,
    inner: imp::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// A reader-writer lock named `name` at `level` around `value`.
    pub fn new(level: LockLevel, name: &'static str, value: T) -> Self {
        OrderedRwLock {
            level,
            name,
            inner: imp::RwLock::new(value),
        }
    }

    /// Acquires a shared read guard under the level discipline.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        witness::on_acquire(self.level, self.name);
        let inner = match self.inner.try_read() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.read();
                waits::record(self.level, t0.elapsed().as_nanos() as u64);
                g
            }
        };
        OrderedRwLockReadGuard {
            inner,
            level: self.level,
            name: self.name,
        }
    }

    /// Acquires the exclusive write guard under the level discipline.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        witness::on_acquire(self.level, self.name);
        let inner = match self.inner.try_write() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let g = self.inner.write();
                waits::record(self.level, t0.elapsed().as_nanos() as u64);
                g
            }
        };
        OrderedRwLockWriteGuard {
            inner,
            level: self.level,
            name: self.name,
        }
    }

    /// This lock's declared level.
    pub fn level(&self) -> LockLevel {
        self.level
    }

    /// This lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

/// Shared read guard from [`OrderedRwLock::read`].
pub struct OrderedRwLockReadGuard<'a, T> {
    inner: imp::RwLockReadGuard<'a, T>,
    level: LockLevel,
    name: &'static str,
}

impl<T> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        witness::on_release(self.level, self.name);
    }
}

/// Exclusive write guard from [`OrderedRwLock::write`].
pub struct OrderedRwLockWriteGuard<'a, T> {
    inner: imp::RwLockWriteGuard<'a, T>,
    level: LockLevel,
    name: &'static str,
}

impl<T> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        witness::on_release(self.level, self.name);
    }
}

/// A condition variable associated with [`OrderedMutex`]es of one
/// declared level: waiting releases the mutex, so the witness pops the
/// held entry for the duration of the block and re-checks the level
/// discipline on wake-up re-acquisition.
pub struct OrderedCondvar {
    level: LockLevel,
    name: &'static str,
    inner: imp::Condvar,
}

impl OrderedCondvar {
    /// A condition variable named `name`, waitable only with guards of
    /// mutexes declared at the same `level`.
    pub fn new(level: LockLevel, name: &'static str) -> Self {
        OrderedCondvar {
            level,
            name,
            inner: imp::Condvar::new(),
        }
    }

    /// Releases `guard`'s mutex and blocks until notified; re-acquires
    /// (re-entering the witness) before returning. Spurious wakeups are
    /// possible — callers must re-check their predicate in a loop.
    pub fn wait<'a, T>(&self, mut guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        debug_assert_eq!(
            self.level, guard.level,
            "condvar `{}` waited with a guard of `{}` at a different level",
            self.name, guard.name
        );
        let (level, name) = (guard.level, guard.name);
        let inner = guard.inner.take().expect("guard present outside wait");
        witness::on_release(level, name);
        let inner = self.inner.wait(inner);
        witness::on_acquire(level, name);
        OrderedMutexGuard {
            inner: Some(inner),
            level,
            name,
        }
    }

    /// Like [`OrderedCondvar::wait`] but also returns after `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: OrderedMutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (OrderedMutexGuard<'a, T>, imp::WaitTimeoutResult) {
        debug_assert_eq!(
            self.level, guard.level,
            "condvar `{}` waited with a guard of `{}` at a different level",
            self.name, guard.name
        );
        let (level, name) = (guard.level, guard.name);
        let inner = guard.inner.take().expect("guard present outside wait");
        witness::on_release(level, name);
        let (inner, timed_out) = self.inner.wait_timeout(inner, timeout);
        witness::on_acquire(level, name);
        (
            OrderedMutexGuard {
                inner: Some(inner),
                level,
                name,
            },
            timed_out,
        )
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// This condvar's declared level.
    pub fn level(&self) -> LockLevel {
        self.level
    }

    /// This condvar's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl std::fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedCondvar")
            .field("name", &self.name)
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_strictly_descending_in_all() {
        for pair in LockLevel::ALL.windows(2) {
            assert!(
                (pair[0] as u8) > (pair[1] as u8),
                "ALL must be sorted strictly descending: {:?}",
                pair
            );
        }
    }

    #[test]
    fn ordered_acquisition_and_wait_totals() {
        let outer = OrderedMutex::new(LockLevel::PoolState, "test.outer", 1u32);
        let inner = OrderedMutex::new(LockLevel::Metrics, "test.inner", 2u32);
        let g1 = outer.lock();
        let g2 = inner.lock();
        assert_eq!(*g1 + *g2, 3);
        drop(g2);
        drop(g1);
        let totals = lock_wait_totals();
        assert_eq!(totals.len(), LockLevel::ALL.len());
        assert!(totals.iter().any(|&(name, _)| name == "pool_state"));
    }

    #[test]
    fn rwlock_and_display() {
        let rw = OrderedRwLock::new(LockLevel::Engine, "test.rw", 5u32);
        assert_eq!(*rw.read(), 5);
        *rw.write() = 6;
        assert_eq!(rw.into_inner(), 6);
        assert_eq!(LockLevel::Engine.to_string(), "engine/70");
    }

    #[test]
    fn uncontended_acquisitions_record_no_wait() {
        // No other test in this binary takes `ExecOutput`, so its total
        // moves only if one of these single-thread acquisitions leaves
        // the try-lock fast path. 30 000 slow-path timings would add up
        // to well over a microsecond; Miri runs a short loop.
        const N: u64 = if cfg!(miri) { 100 } else { 10_000 };
        let level = LockLevel::ExecOutput;
        let m = OrderedMutex::new(level, "test.uncontended_mutex", 0u64);
        let rw = OrderedRwLock::new(level, "test.uncontended_rw", 0u64);
        for i in 1..=N {
            *m.lock() += 1;
            *rw.write() += 1;
            assert_eq!(*rw.read(), i);
        }
        assert_eq!(m.into_inner(), N);
        let wait = lock_wait_totals()
            .into_iter()
            .find(|&(name, _)| name == level.as_str());
        assert_eq!(
            wait,
            Some(("exec_output", 0)),
            "uncontended locks recorded wait"
        );
    }
}
