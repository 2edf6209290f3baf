//! Non-poisoning locks over `std::sync` — the normal-build backend.
//!
//! [`RwLock`], [`Mutex`] and [`Condvar`] are thin wrappers with
//! `parking_lot`'s interface: unlike raw `std`, lock acquisition never
//! returns a poison error, so a panic while holding a guard leaves the
//! data accessible to later callers. That matters here because the
//! engine catches worker panics and keeps serving queries afterwards.
//! Under `--cfg loom` the vendored loom types replace this module.

use std::sync::{self, TryLockError};

/// Guard types re-exported with `parking_lot`'s names.
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Write-side guard.
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;
/// Mutex guard.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

/// Reader-writer lock with `parking_lot`'s non-poisoning interface.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }

    /// Acquires a shared read guard (never errors; poison is cleared).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquires the exclusive write guard (never errors).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking read attempt.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Non-blocking write attempt.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Mutual-exclusion lock with `parking_lot`'s non-poisoning interface.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex around `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock (never errors; poison is cleared).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking lock attempt.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Condition variable with a non-poisoning interface.
///
/// The wait methods consume and return the guard (the `std` shape
/// rather than upstream `parking_lot`'s `&mut` shape — the latter
/// needs `unsafe` to implement over `std`, which this workspace
/// forbids). The loom vendor mirrors this signature exactly so
/// shimmed code is source-compatible in both modes.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

/// Whether a timed wait returned because the timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
        }
    }

    /// Releases the lock and blocks until notified (never errors;
    /// poison is cleared). Spurious wakeups are possible — callers
    /// must re-check their predicate in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match self.inner.wait(guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Like [`Condvar::wait`] but also returns after `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        match self.inner.wait_timeout(guard, timeout) {
            Ok((g, res)) => (g, WaitTimeoutResult(res.timed_out())),
            Err(poisoned) => {
                let (g, res) = poisoned.into_inner();
                (g, WaitTimeoutResult(res.timed_out()))
            }
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(l.into_inner(), 2);
    }

    #[test]
    fn lock_survives_holder_panic() {
        let l = std::sync::Arc::new(RwLock::new(5));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("holder dies");
        })
        .join();
        // Not poisoned: subsequent access still works.
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn condvar_handoff() {
        let shared = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = std::sync::Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("waiter exits");
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let (_g, res) = cv.wait_timeout(g, std::time::Duration::from_millis(5));
        assert!(res.timed_out());
    }
}
