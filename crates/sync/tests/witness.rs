//! Regression tests for the lock-order witness itself (DESIGN.md §17).
//!
//! The witness only exists under `debug_assertions`; the whole suite is
//! compiled out of release test runs, where the wrappers are
//! passthroughs.
#![cfg(debug_assertions)]
#![cfg(not(loom))]

use std::sync::Arc;
use std::time::Duration;

use parj_sync::{
    assert_acquisition_graph_acyclic, recorded_edges, LockLevel, OrderedCondvar, OrderedMutex,
    OrderedRwLock,
};

/// Runs `f` on a fresh thread (its own witness stack) and returns the
/// panic message if it panicked.
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
    std::thread::spawn(f).join().err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".into())
    })
}

#[test]
fn inverted_order_acquisition_is_caught_and_names_both_locks() {
    let msg = panic_message_of(|| {
        let inner = OrderedMutex::new(LockLevel::Metrics, "witness.inverted_inner", ());
        let outer = OrderedMutex::new(LockLevel::Engine, "witness.inverted_outer", ());
        let _low = inner.lock();
        // Metrics is the floor of the hierarchy; acquiring Engine above
        // it inverts the declared order.
        let _high = outer.lock();
    })
    .expect("inverted acquisition must panic");
    assert!(
        msg.contains("witness.inverted_inner") && msg.contains("witness.inverted_outer"),
        "panic must name both locks, got: {msg}"
    );
    assert!(msg.contains("lock-order violation"), "got: {msg}");
}

#[test]
fn same_level_reentry_is_caught_and_names_both_locks() {
    let msg = panic_message_of(|| {
        let a = OrderedMutex::new(LockLevel::Staging, "witness.same_level_a", ());
        let b = OrderedMutex::new(LockLevel::Staging, "witness.same_level_b", ());
        let _ga = a.lock();
        // Same level while held: would deadlock if both threads did it
        // in opposite orders, so the witness rejects it outright.
        let _gb = b.lock();
    })
    .expect("same-level nested acquisition must panic");
    assert!(
        msg.contains("witness.same_level_a") && msg.contains("witness.same_level_b"),
        "panic must name both locks, got: {msg}"
    );
}

#[test]
fn rwlock_read_participates_in_the_witness() {
    let msg = panic_message_of(|| {
        let low = OrderedRwLock::new(LockLevel::Metrics, "witness.rw_low", ());
        let high = OrderedRwLock::new(LockLevel::Engine, "witness.rw_high", ());
        let _r = low.read();
        let _w = high.write();
    })
    .expect("read-then-higher-write must panic");
    assert!(msg.contains("witness.rw_low") && msg.contains("witness.rw_high"));
}

#[test]
fn full_hierarchy_descent_passes_clean() {
    // One lock per declared level, acquired outermost-first: the
    // discipline's canonical legal path. Must not panic, and every
    // recorded edge must point strictly downward.
    let locks: Vec<OrderedMutex<u8>> = LockLevel::ALL
        .iter()
        .map(|&l| OrderedMutex::new(l, l.as_str(), l as u8))
        .collect();
    let guards: Vec<_> = locks.iter().map(|m| m.lock()).collect();
    assert_eq!(guards.len(), LockLevel::ALL.len());
    drop(guards);
    assert_acquisition_graph_acyclic();
}

#[test]
fn out_of_order_release_keeps_the_stack_consistent() {
    let a = OrderedMutex::new(LockLevel::Engine, "witness.release_a", ());
    let b = OrderedMutex::new(LockLevel::PoolState, "witness.release_b", ());
    let c = OrderedMutex::new(LockLevel::Staging, "witness.release_c", ());
    let ga = a.lock();
    let gb = b.lock();
    // Drop the *outermost* first: guards may die in any order.
    drop(ga);
    let gc = c.lock();
    drop(gb);
    drop(gc);
    // The stack drained fully: a fresh top-level acquisition works.
    drop(a.lock());
}

#[test]
fn condvar_wait_releases_and_reacquires_the_witness_entry() {
    let pair = Arc::new((
        OrderedMutex::new(LockLevel::PoolState, "witness.cv_mutex", false),
        OrderedCondvar::new(LockLevel::PoolState, "witness.cv"),
    ));
    let p2 = Arc::clone(&pair);
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*p2;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        // Post-wait the guard is witness-tracked again: going *up* the
        // hierarchy from here must still be rejected.
        drop(g);
    });
    // While the waiter blocks, this thread takes the same mutex (the
    // wait released it) — proving the witness entry was popped too.
    std::thread::sleep(Duration::from_millis(20));
    {
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
    }
    waiter.join().expect("waiter exits clean");
}

#[test]
fn condvar_wait_timeout_roundtrips_the_guard() {
    let m = OrderedMutex::new(LockLevel::PoolJob, "witness.cv_timeout_mutex", 0u32);
    let cv = OrderedCondvar::new(LockLevel::PoolJob, "witness.cv_timeout");
    let g = m.lock();
    let (mut g, res) = cv.wait_timeout(g, Duration::from_millis(5));
    assert!(res.timed_out());
    *g += 1;
    drop(g);
    // After the wait the lower-level world is still reachable.
    let low = OrderedMutex::new(LockLevel::Metrics, "witness.cv_timeout_low", ());
    let _gl = {
        let _gj = m.lock();
        low.lock()
    };
}

#[test]
fn acquisition_graph_records_nesting_edges_and_stays_acyclic() {
    let outer = OrderedMutex::new(LockLevel::EngineSnapshot, "witness.graph_outer", ());
    let inner = OrderedMutex::new(LockLevel::CacheShard, "witness.graph_inner", ());
    {
        let _o = outer.lock();
        let _i = inner.lock();
    }
    let edges = recorded_edges();
    assert!(
        edges.contains(&("witness.graph_outer", "witness.graph_inner")),
        "nesting must record a held->acquired edge, got: {edges:?}"
    );
    // The process-exit check in tests: everything this suite recorded
    // (all level-descending) must form a DAG.
    assert_acquisition_graph_acyclic();
}

#[test]
fn violation_leaves_no_residue_on_the_failing_thread_state() {
    // A rejected acquisition must not record a graph edge: the check
    // fires before bookkeeping, so the global graph stays a DAG that
    // assert_acquisition_graph_acyclic can vouch for.
    let _ = panic_message_of(|| {
        let low = OrderedMutex::new(LockLevel::Metrics, "witness.residue_low", ());
        let high = OrderedMutex::new(LockLevel::Server, "witness.residue_high", ());
        let _l = low.lock();
        let _h = high.lock();
    });
    let edges = recorded_edges();
    assert!(
        !edges.contains(&("witness.residue_low", "witness.residue_high")),
        "a rejected acquisition must not be recorded, got: {edges:?}"
    );
    assert_acquisition_graph_acyclic();
}
