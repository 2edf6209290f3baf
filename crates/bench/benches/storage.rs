//! Criterion benchmarks for the storage substrate: CSR partition build
//! throughput, ID-to-Position index construction, and snapshot
//! encode/decode — the load-time costs §3/§4.2 of the paper trade
//! against query speed.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use parj_datagen::lubm;
use parj_store::{IdPosIndex, Partition, TripleStore};

fn pairs(n: u32) -> Vec<(u32, u32)> {
    // Deterministic pseudo-random (subject, object) pairs with fan-out
    // skew comparable to a real predicate.
    let mut x = 0x9e3779b9u32;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let s = x % (n / 4).max(1);
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let o = x % n.max(1);
            (s, o)
        })
        .collect()
}

fn bench_partition_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_build");
    for n in [10_000u32, 100_000] {
        let input = pairs(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("{n}_pairs"), |b| {
            b.iter_batched(
                || input.clone(),
                |input| black_box(Partition::build(0, &input)),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_idpos_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("idpos_build");
    for universe in [1usize << 16, 1 << 20] {
        let keys: Vec<u32> = (0..universe as u32).step_by(4).collect();
        group.throughput(Throughput::Elements(universe as u64));
        group.bench_function(format!("universe_{universe}"), |b| {
            b.iter(|| black_box(IdPosIndex::build(&keys, 512)));
        });
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 2,
        seed: 42,
    });
    let bytes = store.to_snapshot_bytes();
    let mut group = c.benchmark_group("snapshot");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| black_box(store.to_snapshot_bytes()));
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(TripleStore::from_snapshot_bytes(&bytes).expect("valid")));
    });
    group.finish();
}

fn bench_calibration(c: &mut Criterion) {
    // Algorithm 2 is a load-time cost; it must stay tiny relative to
    // partition building.
    let store = lubm::generate_store(&lubm::LubmConfig {
        universities: 2,
        seed: 42,
    });
    let cfg = parj_join::CalibrationConfig {
        no_of_searches: 500,
        ..parj_join::CalibrationConfig::default()
    };
    c.bench_function("calibrate_algorithm2", |b| {
        b.iter(|| black_box(parj_join::calibrate(&store, &cfg)));
    });
}

criterion_group!(
    benches,
    bench_partition_build,
    bench_idpos_build,
    bench_snapshot,
    bench_calibration
);
criterion_main!(benches);
