//! Query-lifecycle resilience at the public engine surface: a join
//! producing hundreds of millions of rows is stopped — from another
//! thread, by a deadline, or by a row budget — within bounded time,
//! returning a classified error with partial-progress statistics
//! instead of running away with the process.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parj::{CancelToken, LoadSource, OnParseError, Parj, ParjError, RdfFormat};

/// `N` subjects × `K` values per predicate → the two-pattern join below
/// produces `N × K²` rows (≈216M): seconds of work, so every abort path
/// gets exercised mid-flight.
const N: usize = 150;
const K: usize = 1200;
const QUERY: &str = "SELECT ?x ?y ?z WHERE { ?x <http://e/p> ?y . ?x <http://e/q> ?z }";

/// Abort paths should return almost instantly after tripping; this
/// bound is deliberately generous so slow CI cannot flake it.
const BOUND: Duration = Duration::from_secs(30);

fn big_engine() -> &'static Parj {
    static ENGINE: OnceLock<Parj> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut loader = Parj::builder().threads(4).loader();
        let mut nt = String::with_capacity(N * K * 2 * 64);
        for s in 0..N {
            for v in 0..K {
                nt.push_str(&format!(
                    "<http://e/s{s}> <http://e/p> <http://e/v{v}> .\n\
                     <http://e/s{s}> <http://e/q> <http://e/w{v}> .\n"
                ));
            }
        }
        loader
            .load(
                LoadSource::Text(&nt),
                RdfFormat::NTriples,
                OnParseError::Abort,
            )
            .expect("seed engine");
        loader.finish()
    })
}

#[test]
fn cancel_from_another_thread_within_bounded_time() {
    let engine = big_engine();
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
        })
    };
    let t0 = Instant::now();
    let res = engine
        .request(QUERY)
        .cancel(token.clone())
        .count_only()
        .run();
    let elapsed = t0.elapsed();
    canceller.join().unwrap();
    match res {
        Err(ParjError::Cancelled { .. }) => {}
        other => panic!("expected cancellation, got {other:?}"),
    }
    assert!(elapsed < BOUND, "cancel took {elapsed:?}");
    // The shared engine survives; the token re-arms for another run.
    token.reset();
    let k = engine
        .request("SELECT ?y WHERE { <http://e/s0> <http://e/p> ?y }")
        .cancel(token.clone())
        .count_only()
        .run()
        .unwrap()
        .count;
    assert_eq!(k as usize, K);
}

#[test]
fn deadline_stops_runaway_join() {
    let engine = big_engine();
    let limit = Duration::from_millis(30);
    let t0 = Instant::now();
    let res = engine.request(QUERY).timeout(limit).count_only().run();
    let wall = t0.elapsed();
    match res {
        Err(ParjError::DeadlineExceeded { elapsed, partial }) => {
            assert!(elapsed >= limit, "reported {elapsed:?} under the limit");
            assert!(partial.exec_micros > 0);
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(wall < BOUND, "deadline abort took {wall:?}");
}

#[test]
fn row_budget_stops_runaway_join() {
    let engine = big_engine();
    let t0 = Instant::now();
    let res = engine.request(QUERY).max_rows(10_000).count_only().run();
    let wall = t0.elapsed();
    match res {
        Err(ParjError::BudgetExceeded { rows, partial }) => {
            assert!(rows > 10_000, "trip must exceed the budget: {rows}");
            // Partial stats settle after late workers drain their
            // pending batches, so they can only grow past the trip.
            assert!(partial.rows >= rows);
            // Bounded overshoot: at most threads × GUARD_BATCH rows
            // past the limit (plus one batch in flight per worker).
            let max_overshoot = (4 + 1) as u64 * parj::GUARD_BATCH as u64;
            assert!(
                rows <= 10_000 + max_overshoot,
                "overshoot beyond contract: {rows}"
            );
            assert!(partial.plan.contains("scan"));
        }
        other => panic!("expected budget error, got {other:?}"),
    }
    assert!(wall < BOUND, "budget abort took {wall:?}");
}

#[test]
fn full_result_path_honors_the_guard() {
    let engine = big_engine();
    // The materializing path (CollectSink + row shaping) fails the same way
    // silent mode does — no partial result rows leak out.
    match engine.request(QUERY).max_rows(5_000).run() {
        Err(ParjError::BudgetExceeded { rows, .. }) => assert!(rows > 5_000),
        other => panic!(
            "expected budget error from the full-result path, got rows={:?}",
            other.map(|r| r.count)
        ),
    }
}

#[test]
fn generous_limits_do_not_disturb_results() {
    let engine = big_engine();
    let bounded = "SELECT ?y WHERE { <http://e/s1> <http://e/p> ?y }";
    let strict_free = engine.request(bounded).count_only().run().unwrap().count;
    let guarded = engine
        .request(bounded)
        .timeout(Duration::from_secs(300))
        .max_rows(u64::MAX)
        .count_only()
        .run()
        .unwrap()
        .count;
    assert_eq!(strict_free, guarded);
    assert_eq!(guarded as usize, K);
}
