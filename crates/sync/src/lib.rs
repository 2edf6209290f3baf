//! # parj-sync — the workspace's synchronization shim
//!
//! Every concurrent crate in the workspace (`parj-obs`, `parj-dict`,
//! `parj-store`, `parj-join`, `parj-core`) imports its synchronization
//! primitives from here instead of `std::sync` / `std::thread`
//! directly. In a normal build the shim re-exports `std` and its own
//! non-poisoning lock wrappers. Under `RUSTFLAGS="--cfg loom"` the same
//! names resolve to the `loom` model checker's instrumented types, so
//! the `loom_*` concurrency models exercise the *production* atomics
//! and locks, not copies of them.
//!
//! The `xtask lint` gate enforces adoption: shimmed crates may not
//! import `std::sync` or `std::thread` outside `#[cfg(test)]` code.
//!
//! API notes:
//!
//! * [`Mutex`] / [`RwLock`] use `parking_lot`'s non-poisoning
//!   interface (`lock()` returns the guard directly). Poisoning-based
//!   recovery is not something the engine uses — worker panics are
//!   caught per worker and surfaced as errors instead.
//! * [`thread::scope`] is available in both modes (the vendored loom
//!   shim runs real threads, so scoped borrows work under models too).
//! * Atomic constructors stay `const` in both modes, so `static`
//!   metrics registries compile unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(loom))]
mod nonpoison;

#[cfg(not(loom))]
mod imp {
    pub use crate::nonpoison::{
        Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
    };
    pub use std::sync::Arc;

    /// Atomic integer and flag types.
    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }

    /// Thread spawning, scoped threads and yields.
    pub mod thread {
        pub use std::thread::{
            available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Scope,
            ScopedJoinHandle,
        };
    }
}

#[cfg(loom)]
mod imp {
    pub use loom::sync::{
        Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
        WaitTimeoutResult,
    };

    /// Atomic integer and flag types (loom-instrumented).
    pub mod atomic {
        pub use loom::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }

    /// Thread spawning, scoped threads and yields (loom-instrumented).
    pub mod thread {
        pub use loom::thread::{
            available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Scope,
            ScopedJoinHandle,
        };
    }
}

pub use imp::*;

pub mod ordered;

pub use ordered::{
    assert_acquisition_graph_acyclic, lock_wait_totals, recorded_edges, LockLevel, OrderedCondvar,
    OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard,
};

#[cfg(debug_assertions)]
pub use ordered::held_locks;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomics_and_locks_roundtrip() {
        static COUNTER: atomic::AtomicU64 = atomic::AtomicU64::new(0);
        // ordering: Relaxed — single-threaded smoke test, no ordering needed.
        COUNTER.fetch_add(2, atomic::Ordering::Relaxed);
        assert_eq!(COUNTER.load(atomic::Ordering::Relaxed), 2);

        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);

        let rw = RwLock::new(5);
        assert_eq!(*rw.read(), 5);
        *rw.write() = 6;
        assert_eq!(rw.into_inner(), 6);
    }

    #[test]
    fn condvar_predicate_loop() {
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while *g != 7 {
                g = cv.wait(g);
            }
            *g
        });
        {
            let (m, cv) = &*shared;
            *m.lock() = 7;
            cv.notify_all();
        }
        assert_eq!(waiter.join().expect("waiter exits"), 7);
    }

    #[test]
    fn scoped_threads_borrow() {
        let data = vec![1u64, 2, 3];
        let total = Mutex::new(0u64);
        thread::scope(|s| {
            let total = &total;
            for &x in &data {
                s.spawn(move || {
                    *total.lock() += x;
                });
            }
        });
        assert_eq!(total.into_inner(), 6);
    }
}
