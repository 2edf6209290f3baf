//! Lock-hierarchy overhead guardrail (`results/locks.md`,
//! `BENCH_locks.json`).
//!
//! Two phases:
//!
//! 1. **Uncontended microbench.** Acquire/release a raw `parking_lot`
//!    mutex and the level-carrying [`OrderedMutex`] back to back. In
//!    release builds the witness compiles out, so the wrapper must
//!    cost no more than a branch over the raw lock — the bench
//!    *asserts* the per-op delta stays within noise, so a future
//!    change that accidentally puts clock reads or bookkeeping on the
//!    uncontended fast path fails the run instead of shipping a
//!    hot-path regression.
//! 2. **Closed-loop pooled phase.** A selective-query workload run
//!    in-process on a pooled engine, then the engine's own
//!    `parj_lock_wait_micros{level}` family is read off the metrics
//!    snapshot — the same numbers an operator sees — and reported per
//!    hierarchy level next to total wall time.
//!
//! [`OrderedMutex`]: parj_sync::OrderedMutex

use std::hint::black_box;

use parj_datagen::lubm;
use parj_obs::SampleValue;
use parj_sync::{LockLevel, Mutex, OrderedMutex, OrderedRwLock, RwLock};
use serde_json::json;

use crate::report::Table;
use crate::setup::{lubm_engine, Args};

/// Acquire/release pairs per timing run: long enough that one run is
/// milliseconds (timer quantization invisible), short enough to repeat.
const MICRO_ITERS: usize = 2_000_000;

/// Timing runs per primitive; the minimum is reported (noise on a
/// shared runner only ever adds time).
const MICRO_RUNS: usize = 3;

/// Selective LUBM queries and how many closed-loop passes to drive
/// through the pooled engine.
const QUERY_MIX: [&str; 4] = ["LUBM1", "LUBM4", "LUBM5", "LUBM6"];
const MIX_PASSES: usize = 24;

/// Best-of-runs nanoseconds per op for `f`.
fn per_op_ns<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..MICRO_RUNS {
        let t = std::time::Instant::now();
        for _ in 0..MICRO_ITERS {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / MICRO_ITERS as f64);
    }
    best
}

/// Lock-overhead guardrail: asserts the ordered wrappers' uncontended
/// cost stays within noise of the raw locks (release builds), then
/// profiles `parj_lock_wait_micros{level}` over a pooled closed loop.
pub fn locks(args: &Args) -> (Vec<Table>, serde_json::Value) {
    // Phase 1 — uncontended acquire/release, raw vs ordered.
    let raw = Mutex::new(0u64);
    let raw_ns = per_op_ns(|| *black_box(&raw).lock() += 1);
    // Metrics is the hierarchy floor, legal to take anywhere — the
    // debug-build witness stays happy if this bench runs unoptimized.
    let ordered = OrderedMutex::new(LockLevel::Metrics, "bench.micro_mutex", 0u64);
    let ordered_ns = per_op_ns(|| *black_box(&ordered).lock() += 1);

    let raw_rw = RwLock::new(0u64);
    let raw_read_ns = per_op_ns(|| {
        black_box(*black_box(&raw_rw).read());
    });
    let ordered_rw = OrderedRwLock::new(LockLevel::Metrics, "bench.micro_rwlock", 0u64);
    let ordered_read_ns = per_op_ns(|| {
        black_box(*black_box(&ordered_rw).read());
    });

    let mutex_delta = ordered_ns - raw_ns;
    let read_delta = ordered_read_ns - raw_read_ns;
    // The guardrail: release builds compile the witness out, leaving a
    // try_lock branch. A clock read is ~20-30 ns — if bookkeeping ever
    // lands on the uncontended path, this trips long before profiles
    // notice. Debug builds run the full witness, where overhead is the
    // point, so the assertion only arms in release.
    let guardrail_armed = !cfg!(debug_assertions);
    if guardrail_armed {
        assert!(
            ordered_ns <= raw_ns * 2.0 + 25.0,
            "OrderedMutex uncontended overhead out of noise range: \
             raw {raw_ns:.1} ns/op vs ordered {ordered_ns:.1} ns/op"
        );
        assert!(
            ordered_read_ns <= raw_read_ns * 2.0 + 25.0,
            "OrderedRwLock::read uncontended overhead out of noise range: \
             raw {raw_read_ns:.1} ns/op vs ordered {ordered_read_ns:.1} ns/op"
        );
    }

    let mut micro = Table::new(
        format!(
            "Ordered-wrapper overhead — uncontended acquire/release, best of \
             {MICRO_RUNS}×{MICRO_ITERS} ops{}",
            if guardrail_armed { " (guardrail asserted)" } else { " (debug build, informational)" }
        ),
        &["raw (ns/op)", "ordered (ns/op)", "delta (ns/op)"],
    );
    micro.row(
        "Mutex lock+unlock",
        vec![
            format!("{raw_ns:.1}"),
            format!("{ordered_ns:.1}"),
            format!("{mutex_delta:+.1}"),
        ],
    );
    micro.row(
        "RwLock read+unlock",
        vec![
            format!("{raw_read_ns:.1}"),
            format!("{ordered_read_ns:.1}"),
            format!("{read_delta:+.1}"),
        ],
    );

    // Phase 2 — pooled closed loop; read the lock-wait family back off
    // the engine's own snapshot.
    let mut cfg = args.engine_config();
    cfg.threads = 2;
    cfg.cache = false;
    // Small morsels keep the selective queries genuinely
    // multi-worker, i.e. actually contending on the pool locks.
    cfg.morsel_size = 64;
    let engine = lubm_engine(args.scale, cfg);

    let queries: Vec<_> = lubm::queries()
        .into_iter()
        .filter(|q| QUERY_MIX.contains(&q.name.as_str()))
        .collect();
    assert_eq!(queries.len(), QUERY_MIX.len(), "locks mix names must resolve");

    let wall = std::time::Instant::now();
    for _ in 0..MIX_PASSES {
        for q in &queries {
            engine
                .request(&q.sparql)
                .threads(2)
                .count_only()
                .run()
                .expect("benchmark query must run");
        }
    }
    let wall_micros = wall.elapsed().as_micros() as u64;

    let snapshot = engine.metrics_snapshot();
    let mut waits: Vec<(String, u64)> = Vec::new();
    for family in &snapshot.families {
        if family.name != "parj_lock_wait_micros" {
            continue;
        }
        for sample in &family.samples {
            if let SampleValue::Integer(v) = sample.value {
                let level = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "level")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                waits.push((level, v));
            }
        }
    }
    let total_wait: u64 = waits.iter().map(|(_, v)| v).sum();

    let mut wait_table = Table::new(
        format!(
            "Lock-wait by hierarchy level — pooled closed loop, {MIX_PASSES} passes × \
             {} selective LUBM queries (U={}, 2 threads, morsel 64, cache off)",
            QUERY_MIX.len(),
            args.scale
        ),
        &["wait (µs)", "share of wall"],
    );
    for (level, v) in &waits {
        wait_table.row(
            level,
            vec![
                v.to_string(),
                format!("{:.3}%", *v as f64 / wall_micros.max(1) as f64 * 100.0),
            ],
        );
    }
    wait_table.separator();
    wait_table.row(
        "**total**",
        vec![
            total_wait.to_string(),
            format!("{:.3}%", total_wait as f64 / wall_micros.max(1) as f64 * 100.0),
        ],
    );
    wait_table.row("wall time (µs)", vec![wall_micros.to_string(), String::new()]);

    let mut waits_json = serde_json::Map::new();
    for (l, v) in &waits {
        waits_json.insert(l.clone(), json!(v));
    }
    (
        vec![micro, wait_table],
        json!({
            "experiment": "locks", "dataset": "lubm", "scale": args.scale,
            "micro": {
                "iters": MICRO_ITERS, "runs": MICRO_RUNS,
                "mutex_raw_ns": raw_ns, "mutex_ordered_ns": ordered_ns,
                "rwlock_read_raw_ns": raw_read_ns, "rwlock_read_ordered_ns": ordered_read_ns,
                "guardrail_armed": guardrail_armed,
                "guardrail": "ordered <= raw * 2 + 25 ns/op, both primitives",
            },
            "closed_loop": {
                "query_mix": QUERY_MIX, "passes": MIX_PASSES,
                "threads_per_query": 2, "morsel_size": 64,
                "wall_micros": wall_micros,
                "lock_wait_micros_by_level": serde_json::Value::Object(waits_json),
                "total_lock_wait_micros": total_wait,
            },
        }),
    )
}
