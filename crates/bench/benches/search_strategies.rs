//! Criterion micro-benchmarks for the adaptive search (Algorithm 1):
//! probe cost of each strategy as a function of probe locality.
//!
//! The paper's core claim is a crossover: for probes landing *near* the
//! cursor, sequential search wins; for far probes, binary search (or the
//! ID-to-Position index) wins; the adaptive switch should track the
//! better of the two at every stride. Sweeping the probe stride makes
//! that crossover visible in one chart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parj_join::{adaptive_search, ProbeStrategy, SearchStats};
use parj_store::IdPosIndex;

const ARRAY_LEN: u32 = 1 << 20;
/// Values are spaced by 4, like a predicate whose subjects are every
/// fourth dictionary id.
const GAP: u32 = 4;

fn setup() -> (Vec<u32>, IdPosIndex) {
    let keys: Vec<u32> = (0..ARRAY_LEN).map(|i| i * GAP).collect();
    let idx = IdPosIndex::build(&keys, 512);
    (keys, idx)
}

fn bench_probe_strides(c: &mut Criterion) {
    let (keys, idx) = setup();
    let mut group = c.benchmark_group("probe_stride");
    // Strides in positions between consecutive probes: 1 (merge-like),
    // 16, 256 (near the paper's binary threshold), 4096 (random-ish).
    for stride in [1u32, 16, 256, 4096] {
        for strategy in [
            ProbeStrategy::AlwaysSequential,
            ProbeStrategy::AlwaysBinary,
            ProbeStrategy::AlwaysIndex,
            ProbeStrategy::AdaptiveBinary,
            ProbeStrategy::AdaptiveIndex,
        ] {
            group.bench_with_input(
                BenchmarkId::new(strategy.label(), stride),
                &stride,
                |b, &stride| {
                    // Threshold: 200 positions in value space, the
                    // paper's measured default.
                    let threshold = (200 * GAP) as i64;
                    b.iter(|| {
                        let mut stats = SearchStats::default();
                        let mut cursor = 0usize;
                        let mut probe = 0u32;
                        let mut found = 0u64;
                        for _ in 0..1024 {
                            if adaptive_search(
                                &keys,
                                probe,
                                &mut cursor,
                                threshold,
                                strategy,
                                Some(&idx),
                                &mut stats,
                            )
                            .is_some()
                            {
                                found += 1;
                            }
                            probe = probe.wrapping_add(stride * GAP) % (ARRAY_LEN * GAP);
                        }
                        black_box(found)
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_idpos_vs_binary(c: &mut Criterion) {
    let (keys, idx) = setup();
    let mut group = c.benchmark_group("random_lookup");
    group.bench_function("binary_search", |b| {
        let mut x = 12345u32;
        b.iter(|| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let probe = x % (ARRAY_LEN * GAP);
            black_box(keys.binary_search(&probe).ok())
        });
    });
    group.bench_function("idpos_lookup", |b| {
        let mut x = 12345u32;
        b.iter(|| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let probe = x % (ARRAY_LEN * GAP);
            black_box(idx.lookup(probe))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_probe_strides, bench_idpos_vs_binary);
criterion_main!(benches);
