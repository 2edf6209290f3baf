//! Layer microbenches in work-efficiency units (ns per probe, values
//! per second, bytes per triple) that stay meaningful on a 2-core
//! sandbox. They run on the traced workload's own store, so every
//! number is for real key distributions, not synthetic arrays.

use std::hint::black_box;
use std::time::Instant;

use parj_core::{Id, SortOrder, Term, TripleStore};
use parj_dict::Dictionary;
use parj_join::{
    adaptive_search, binary_search_cursor, sequential_search, CalibrationResult, ProbeStrategy,
    SearchStats, ThresholdTable,
};
use parj_store::{merge_values_into, Replica};

use crate::metrics::{ratio, MetricSet};
use crate::timing::ns_per_iter;

fn replicas(store: &TripleStore) -> impl Iterator<Item = (Id, SortOrder, &Replica)> {
    store
        .partitions()
        .iter()
        .flat_map(|p| [SortOrder::SO, SortOrder::OS].map(|o| (p.predicate(), o, p.replica(o))))
}

/// Algorithm 2's curve (Table 5): cost of one probe when successive
/// probes land `gap` key positions apart, per search method.
fn search_curve(m: &mut MetricSet, store: &TripleStore, probes: usize) {
    let Some((pred, order, replica)) = replicas(store).max_by_key(|(_, _, r)| r.num_keys()) else {
        return;
    };
    let keys = replica.keys();
    if keys.len() < 2 {
        return;
    }
    let threshold = ThresholdTable::from_calibration(store, &CalibrationResult::paper_defaults())
        .get(pred, order)
        .binary;
    // Probe `i` looks for the key `gap` positions after probe `i-1`'s,
    // wrapping (with a cursor reset) at the end of the array.
    let run =
        |gap: usize, search: &mut dyn FnMut(Id, &mut usize, &mut SearchStats) -> Option<usize>| {
            let mut stats = SearchStats::new();
            let mut cursor = 0usize;
            let mut pos = 0usize;
            let ns = ns_per_iter(probes, |_| {
                black_box(search(keys[pos], &mut cursor, &mut stats));
                pos += gap;
                if pos >= keys.len() {
                    pos %= keys.len();
                    cursor = 0;
                }
            });
            black_box(stats);
            ns
        };
    let mut seq = |v: Id, c: &mut usize, s: &mut SearchStats| sequential_search(keys, v, c, s);
    m.set("join.seq_ns_per_probe_gap1", run(1, &mut seq));
    m.set("join.seq_ns_per_probe_gap16", run(16, &mut seq));
    m.set("join.seq_ns_per_probe_gap256", run(256, &mut seq));
    m.set("join.seq_ns_per_probe_gap4096", run(4096, &mut seq));
    let mut bin = |v: Id, c: &mut usize, s: &mut SearchStats| binary_search_cursor(keys, v, c, s);
    m.set("join.bin_ns_per_probe", run(4096, &mut bin));
    let mut adaptive = |v: Id, c: &mut usize, s: &mut SearchStats| {
        adaptive_search(
            keys,
            v,
            c,
            threshold,
            ProbeStrategy::AdaptiveBinary,
            None,
            s,
        )
    };
    m.set("join.adaptive_ns_per_probe_gap16", run(16, &mut adaptive));
    m.set(
        "join.adaptive_ns_per_probe_gap4096",
        run(4096, &mut adaptive),
    );
}

/// Replica-level costs on the largest compressed replica and its
/// decompressed twin: membership probes, key location, block decode.
fn replica_probes(m: &mut MetricSet, store: &TripleStore, probes: usize) {
    let by_size = |compressed: bool| {
        replicas(store)
            .map(|(_, _, r)| r)
            .filter(|r| r.is_compressed() == compressed)
            .max_by_key(|r| r.num_triples())
    };
    let Some(packed) = by_size(true).or_else(|| by_size(false)) else {
        return;
    };
    let mut raw = packed.clone();
    raw.decompress();

    // One known member per probed group, strided over the key space.
    let n = raw.num_keys();
    let stride = (n / probes.max(1)).max(1) | 1;
    let targets: Vec<(usize, Id, Id)> = (0..probes.min(n))
        .map(|i| {
            let pos = (i * stride) % n;
            let values = raw.values_at(pos);
            (pos, raw.key_at(pos), values[values.len() / 2])
        })
        .collect();
    let probe = |r: &Replica| {
        ns_per_iter(targets.len(), |i| {
            let (pos, _, v) = targets[i];
            black_box(r.group_at(pos).contains(v));
        })
    };
    if packed.is_compressed() {
        m.set("store.packed_contains_ns", probe(packed));
        let mut out = Vec::with_capacity(packed.num_triples());
        let t = Instant::now();
        for pos in 0..packed.num_keys() {
            packed.group_at(pos).decode_into(&mut out);
        }
        m.set(
            "store.decode_values_per_s",
            ratio(out.len() as f64, t.elapsed().as_secs_f64()),
        );
        black_box(out);
    }
    m.set("store.raw_contains_ns", probe(&raw));
    m.set(
        "store.find_key_ns",
        ns_per_iter(targets.len(), |i| {
            black_box(packed.find_key(targets[i].1));
        }),
    );
    if let Some(idpos) = packed.idpos() {
        m.set(
            "store.idpos_lookup_ns",
            ns_per_iter(targets.len(), |i| {
                black_box(idpos.lookup(targets[i].1));
            }),
        );
    }

    // Two-run merge (the delta read path and compaction inner loop):
    // a base run with every 16th value tombstoned and as many inserts.
    let base: Vec<Id> = raw
        .keys()
        .iter()
        .copied()
        .take(64 * 1024)
        .map(|k| k.saturating_mul(2))
        .collect();
    let del: Vec<Id> = base.iter().copied().step_by(16).collect();
    let add: Vec<Id> = del.iter().map(|v| v + 1).collect();
    let mut out = Vec::with_capacity(base.len() + add.len());
    let ns = ns_per_iter(8, |_| {
        out.clear();
        merge_values_into(&base, &add, &del, &mut out);
        black_box(out.len());
    });
    m.set(
        "store.merge_ns_per_pair",
        ratio(ns, (base.len() + add.len() + del.len()) as f64),
    );
}

/// Footprint figures: exact, no timing.
fn footprint(m: &mut MetricSet, store: &TripleStore) {
    let triples = store.num_triples() as f64;
    let value_bytes: usize = replicas(store).map(|(_, _, r)| r.value_bytes()).sum();
    m.set(
        "store.value_bytes_per_triple",
        ratio(value_bytes as f64, triples),
    );
    m.set(
        "store.total_bytes_per_triple",
        ratio(store.partitions_memory_bytes() as f64, triples),
    );
    m.set(
        "store.compressed_replicas",
        replicas(store)
            .filter(|(_, _, r)| r.is_compressed())
            .count() as f64,
    );
    let dict = store.dict();
    let terms = (dict.num_resources() + dict.num_predicates()) as f64;
    m.set(
        "dict.bytes_per_term",
        ratio(dict.memory_bytes() as f64, terms),
    );
}

/// Dictionary costs over a sample of the store's own terms.
fn dictionary(m: &mut MetricSet, store: &TripleStore, sample: usize) {
    let dict = store.dict();
    let n = dict.num_resources().min(sample);
    if n == 0 {
        return;
    }
    let stride = (dict.num_resources() / n).max(1);
    let ids: Vec<Id> = (0..n).map(|i| (i * stride) as Id).collect();
    let mut terms: Vec<Term> = Vec::with_capacity(n);
    let t = Instant::now();
    for &id in &ids {
        terms.push(dict.decode_resource(id).expect("dense resource ids decode"));
    }
    m.set(
        "dict.decode_ns_per_term",
        t.elapsed().as_nanos() as f64 / n as f64,
    );
    m.set(
        "dict.lookup_ns_per_term",
        ns_per_iter(n, |i| {
            black_box(dict.resource_id(&terms[i]));
        }),
    );
    let mut fresh = Dictionary::new();
    let t = Instant::now();
    for term in &terms {
        black_box(fresh.encode_resource(term));
    }
    m.set(
        "dict.encode_ns_per_term",
        t.elapsed().as_nanos() as f64 / n as f64,
    );
}

/// Runs every microbench against `store`.
pub fn run(m: &mut MetricSet, store: &TripleStore, probes: usize) {
    search_curve(m, store, probes);
    replica_probes(m, store, probes / 4);
    footprint(m, store);
    dictionary(m, store, probes / 4);
}
