//! Measures what the lifecycle guard costs on a probe-heavy plan.
//!
//! The guard is polled every [`GUARD_BATCH`] bindings; between polls a
//! worker pays one local counter decrement per binding. This bench
//! pins that claim: silent-mode execution of a two-step chain join —
//! probes dominate, emits are cheap, so any per-binding overhead is
//! maximally visible — compared across (a) no guard, (b) an unlimited
//! guard (cancel flag only), and (c) a guard with a far deadline and a
//! huge budget (all three checks armed). The expected spread is under
//! 2%; anything more is a hot-path regression.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use parj_dict::Term;
use parj_join::{
    execute_count, Atom, CalibrationResult, CancelToken, ExecOptions, ExecSource, PhysicalPlan,
    PlanStep, QueryGuard, ThresholdTable, WorkerPool,
};
use parj_store::{SortOrder, StoreBuilder, TripleStore};

/// `NX` subjects fan out to `FAN` mid nodes; each mid node has one `q`
/// edge, so the chain `?x p ?y . ?y q ?z` probes `NX × FAN` times.
const NX: usize = 20_000;
const FAN: usize = 8;

fn store() -> TripleStore {
    let mut b = StoreBuilder::new();
    let p = Term::iri("http://e/p");
    let q = Term::iri("http://e/q");
    for x in 0..NX {
        let subj = Term::iri(format!("http://e/x{x}"));
        for f in 0..FAN {
            let mid = (x * 31 + f * 977) % (NX * 2);
            b.add_term_triple(&subj, &p, &Term::iri(format!("http://e/m{mid}")));
        }
    }
    for mid in 0..NX * 2 {
        b.add_term_triple(
            &Term::iri(format!("http://e/m{mid}")),
            &q,
            &Term::iri(format!("http://e/z{}", mid % 97)),
        );
    }
    b.build()
}

fn chain_plan(s: &TripleStore) -> PhysicalPlan {
    let pid = |name: &str| s.dict().predicate_id(&Term::iri(name)).unwrap();
    PhysicalPlan::new(
        vec![
            PlanStep {
                predicate: pid("http://e/p"),
                order: SortOrder::SO,
                key: Atom::Var(0),
                value: Atom::Var(1),
            },
            PlanStep {
                predicate: pid("http://e/q"),
                order: SortOrder::SO,
                key: Atom::Var(1),
                value: Atom::Var(2),
            },
        ],
        3,
        vec![0, 1, 2],
    )
    .unwrap()
}

fn bench_guard_overhead(c: &mut Criterion) {
    let s = Arc::new(store());
    let plan = chain_plan(&s);
    let thresholds = Arc::new(ThresholdTable::from_calibration(
        &s,
        &CalibrationResult::paper_defaults(),
    ));
    let src = ExecSource {
        store: &s,
        delta: None,
        thresholds: &thresholds,
    };
    // Seats for the 4-thread rung's helpers.
    let pool = WorkerPool::new(3);
    let mut group = c.benchmark_group("guard_overhead");

    for threads in [1usize, 4] {
        let base = ExecOptions::with_threads(threads);

        let unguarded = ExecOptions {
            guard: None,
            ..base.clone()
        };
        group.bench_function(format!("unguarded/{threads}t"), |b| {
            b.iter(|| {
                let (count, _) = execute_count(src, &plan, &unguarded, Some(&pool)).expect("runs");
                black_box(count)
            });
        });

        group.bench_function(format!("guarded_unlimited/{threads}t"), |b| {
            b.iter(|| {
                // Fresh guard per iteration, as the engine does per run.
                let opts = ExecOptions {
                    guard: Some(Arc::new(QueryGuard::unlimited())),
                    ..base.clone()
                };
                let (count, _) = execute_count(src, &plan, &opts, Some(&pool)).expect("runs");
                black_box(count)
            });
        });

        group.bench_function(format!("guarded_all_limits/{threads}t"), |b| {
            b.iter(|| {
                let opts = ExecOptions {
                    guard: Some(Arc::new(QueryGuard::new(
                        Some(Duration::from_secs(3600)),
                        Some(u64::MAX),
                        CancelToken::new(),
                    ))),
                    ..base.clone()
                };
                let (count, _) = execute_count(src, &plan, &opts, Some(&pool)).expect("runs");
                black_box(count)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_guard_overhead);
criterion_main!(benches);
