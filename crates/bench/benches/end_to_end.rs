//! Criterion end-to-end query benchmarks: representative queries from
//! both workloads under every probe strategy (silent mode), plus a
//! parse+optimize-only benchmark isolating the preparation cost the
//! paper discusses in §5.2.3 (query S1: "more than 40 milliseconds of
//! the reported time of 49 milliseconds is spent on producing the join
//! order in the optimizer").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parj_core::{EngineConfig, Parj, ProbeStrategy};
use parj_datagen::{lubm, watdiv};

fn lubm_engine() -> Parj {
    Parj::from_store(
        lubm::generate_store(&lubm::LubmConfig {
            universities: 4,
            seed: 42,
        }),
        EngineConfig::default(),
    )
}

fn watdiv_engine() -> Parj {
    Parj::from_store(
        watdiv::generate_store(&watdiv::WatDivConfig { scale: 8, seed: 42 }),
        EngineConfig::default(),
    )
}

fn bench_lubm_queries(c: &mut Criterion) {
    let engine = lubm_engine();
    let queries = lubm::queries();
    let mut group = c.benchmark_group("lubm_silent");
    for name in ["LUBM2", "LUBM4", "LUBM9"] {
        let q = queries.iter().find(|q| q.name == name).expect("exists");
        for strategy in ProbeStrategy::TABLE5 {
            group.bench_with_input(
                BenchmarkId::new(name, strategy.label()),
                &q.sparql,
                |b, sparql| {
                    b.iter(|| {
                        black_box(
                            engine
                                .request(sparql)
                                .threads(1)
                                .strategy(strategy)
                                .count_only()
                                .run()
                                .expect("runs")
                                .count,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_watdiv_queries(c: &mut Criterion) {
    let engine = watdiv_engine();
    let mut group = c.benchmark_group("watdiv_silent");
    let picks: Vec<_> = watdiv::all_queries()
        .into_iter()
        .filter(|q| matches!(q.name.as_str(), "S1" | "C3" | "IL-3-7" | "ML-2-7"))
        .collect();
    for q in &picks {
        group.bench_function(&q.name, |b| {
            b.iter(|| {
                black_box(
                    engine
                        .request(&q.sparql)
                        .threads(1)
                        .count_only()
                        .run()
                        .expect("runs")
                        .count,
                )
            });
        });
    }
    group.finish();
}

fn bench_prepare_only(c: &mut Criterion) {
    let engine = watdiv_engine();
    let s1 = watdiv::basic_workload()
        .into_iter()
        .find(|q| q.name == "S1")
        .expect("S1 exists");
    c.bench_function("prepare_only_S1", |b| {
        b.iter(|| black_box(engine.explain(&s1.sparql).expect("plans")));
    });
}

criterion_group!(
    benches,
    bench_lubm_queries,
    bench_watdiv_queries,
    bench_prepare_only
);
criterion_main!(benches);
