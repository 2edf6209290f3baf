//! Measures what an attached [`Recorder`] costs on a probe-heavy plan.
//!
//! The recorder fires **once per execution** with aggregates the
//! workers maintain anyway (per-step counters and row counts), so the
//! per-binding hot path is untouched; the only added work is the
//! per-worker vector moves and one aggregation pass at coordinator
//! exit. This bench pins that claim on the same two-step chain join as
//! `guard_overhead`: silent mode, probes dominate, emits are cheap.
//! Compared: (a) no recorder, (b) a recorder feeding a full
//! `parj-obs` metrics registry the way the engine does. The expected
//! spread is under 2%; anything more is a plumbing regression.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use parj_dict::Term;
use parj_join::{
    execute_count, Atom, CalibrationResult, ExecOptions, ExecRecord, ExecSource, PhysicalPlan,
    PlanStep, Recorder, ThresholdTable, WorkerPool,
};
use parj_obs::EngineMetrics;
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

/// The engine's adapter shape: fold the record into a metrics registry.
struct MetricsRecorder(Arc<EngineMetrics>);

impl Recorder for MetricsRecorder {
    fn record_exec(&self, r: &ExecRecord<'_>) {
        let probe_rows: u64 = r.step_rows[..r.step_rows.len().saturating_sub(1)].iter().sum();
        let max = r.worker_units.iter().max().copied().unwrap_or(0);
        let total: u64 = r.worker_units.iter().sum();
        let imbalance = (max * r.worker_units.len() as u64 * 1000)
            .checked_div(total)
            .unwrap_or(1000);
        self.0.record_plan_exec(probe_rows, imbalance, r.morsels);
    }
}

fn bench_recorder_overhead(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("recorder_overhead");

    for threads in [1usize, 4] {
        let bare = ExecOptions::with_threads(threads);
        group.bench_function(format!("unrecorded/{threads}t"), |b| {
            b.iter(|| {
                let (count, _) = execute_count(src, &plan, &bare, Some(&pool)).expect("runs");
                black_box(count)
            });
        });

        let metrics = Arc::new(EngineMetrics::new());
        let recorded = ExecOptions::builder()
            .threads(threads)
            .recorder(Some(Arc::new(MetricsRecorder(Arc::clone(&metrics))) as _))
            .build()
            .expect("valid options");
        group.bench_function(format!("recorded/{threads}t"), |b| {
            b.iter(|| {
                let (count, _) = execute_count(src, &plan, &recorded, Some(&pool)).expect("runs");
                black_box(count)
            });
        });
        black_box(metrics.snapshot());
    }
    group.finish();
}

criterion_group!(benches, bench_recorder_overhead);
criterion_main!(benches);
