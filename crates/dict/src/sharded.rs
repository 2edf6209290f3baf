//! Deterministic two-phase parallel dictionary encoding.
//!
//! The bulk loader wants to intern millions of terms from many parser
//! threads, but PARJ's dense ids are load-bearing: snapshots, the
//! ID-to-Position bitmaps and every query plan assume the `i`-th
//! distinct term owns id `i` in first-occurrence order. A lock-per-term
//! concurrent map would make ids depend on thread interleaving, so the
//! loader splits interning into two phases instead:
//!
//! 1. **Collect** (parallel, read-only): each input chunk probes the
//!    existing namespace and gathers its *novel* candidate keys into a
//!    [`TermBatch`], deduplicated within the chunk, in encounter order.
//! 2. **Assign** ([`Namespace::extend_batches`]): candidates are
//!    hash-partitioned into shards; shards deduplicate *across* chunks
//!    in parallel (each shard owns a disjoint slice of hash space, so no
//!    two shards ever see the same key); then a single serial sweep
//!    appends the surviving first occurrences in `(chunk, position)`
//!    order.
//!
//! Because chunks are cut from the document in order, `(chunk,
//! position)` order *is* document order, so phase 2 assigns exactly the
//! ids a serial `encode_key` loop over the document would — independent
//! of thread count, shard count and chunk boundaries. That is the
//! determinism argument the loader's property tests enforce.

use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{LockLevel, OrderedMutex};

use crate::arena::StringArena;
use crate::dict::{Dictionary, Namespace};
use crate::hash::fx_hash_bytes;
use crate::table::IdTable;
use crate::{Id, NO_ID};

/// Candidate terms from one input chunk: canonical keys that were
/// absent from the namespace when collected, deduplicated within the
/// chunk, in encounter order, each paired with its precomputed hash.
///
/// The keys live in one arena (payload buffer plus offsets), so a batch
/// costs a handful of allocations however many candidates it holds.
#[derive(Debug, Default, Clone)]
pub struct TermBatch {
    hashes: Vec<u64>,
    keys: StringArena,
}

impl TermBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a candidate key into the batch with its precomputed
    /// `fx_hash_bytes` hash; returns its position in the batch. The
    /// caller is responsible for within-batch deduplication.
    pub fn push(&mut self, hash: u64, key: &str) -> u32 {
        debug_assert_eq!(hash, fx_hash_bytes(key.as_bytes()));
        self.hashes.push(hash);
        self.keys.push(key) as u32
    }

    /// Number of candidates in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the batch holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Hash of the `i`-th candidate.
    pub fn hash(&self, i: usize) -> u64 {
        self.hashes[i]
    }

    /// Key of the `i`-th candidate.
    pub fn key(&self, i: usize) -> &str {
        self.keys.get(i).expect("candidate index in range")
    }
}

/// Per-shard classification of the candidates routed to it.
#[derive(Default)]
struct ShardOut {
    /// `(chunk, pos)` of each first occurrence, in scan order.
    firsts: Vec<(u32, u32)>,
    /// `(chunk, pos, index into firsts)` for repeated occurrences.
    dups: Vec<(u32, u32, u32)>,
}

impl Namespace {
    /// Phase 2 of the two-phase encode: assigns ids to every candidate
    /// in `batches` and returns one id table per batch (`ids[c][i]` is
    /// the id of `batches[c].key(i)`).
    ///
    /// Candidates are collected against this namespace (absent at
    /// collect time); a key added since then gets its existing id.
    /// Within a batch keys must be distinct; across batches duplicates
    /// are expected and resolved here. Ids come out identical to a
    /// serial `encode_key` sweep in `(chunk, position)` order, for any
    /// `shards`/`threads`.
    pub fn extend_batches(
        &mut self,
        batches: &[TermBatch],
        shards: usize,
        threads: usize,
    ) -> Vec<Vec<Id>> {
        let n_shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let mask = (n_shards - 1) as u64;
        let total: usize = batches.iter().map(TermBatch::len).sum();
        let mut ids: Vec<Vec<Id>> = batches.iter().map(|b| vec![NO_ID; b.len()]).collect();
        if total == 0 {
            return ids;
        }

        let key_of = |(c, i): (u32, u32)| batches[c as usize].key(i as usize);
        // Cross-chunk dedup, one shard per disjoint hash-space slice.
        let classify = |shard: u64| -> ShardOut {
            let mut out = ShardOut::default();
            // Room for twice a shard's share: growth stays rare.
            let mut index = IdTable::with_capacity(2 * total / n_shards);
            for (c, batch) in batches.iter().enumerate() {
                for i in 0..batch.len() {
                    let hash = batch.hash(i);
                    if hash & mask != shard {
                        continue;
                    }
                    let key = batch.key(i);
                    let firsts = &out.firsts;
                    let hit = index.find_or_insert(
                        hash,
                        |f| key_of(firsts[f as usize]) == key,
                        || firsts.iter().map(|&(c, i)| batches[c as usize].hash(i as usize)),
                    );
                    match hit {
                        Some(f) => out.dups.push((c as u32, i as u32, f)),
                        None => out.firsts.push((c as u32, i as u32)),
                    }
                }
            }
            out
        };

        let threads = threads.max(1).min(n_shards);
        let outs: Vec<ShardOut> = if threads <= 1 {
            (0..n_shards as u64).map(classify).collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<ShardOut>> = Vec::new();
            slots.resize_with(n_shards, || None);
            let slot_ptrs: Vec<OrderedMutex<&mut Option<ShardOut>>> = slots
                .iter_mut()
                .map(|s| OrderedMutex::new(LockLevel::Staging, "staging.dict_slot", s))
                .collect();
            parj_sync::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        // ordering: Relaxed — shard ticket only; shard
                        // output is published through its slot Mutex and
                        // the scope join edge (loom_sharded model checks
                        // the id assignment stays deterministic).
                        let shard = next.fetch_add(1, Ordering::Relaxed);
                        if shard >= n_shards {
                            break;
                        }
                        let out = classify(shard as u64);
                        **slot_ptrs[shard].lock() = Some(out);
                    });
                }
            });
            drop(slot_ptrs);
            slots
                .into_iter()
                .map(|s| s.expect("every shard classified"))
                .collect()
        };

        // Canonical assignment: append first occurrences in document
        // order — exactly the order a serial encode_key sweep sees.
        let mut merged: Vec<(u32, u32, u32, u32)> = Vec::new();
        for (s, out) in outs.iter().enumerate() {
            for (f, &(c, i)) in out.firsts.iter().enumerate() {
                merged.push((c, i, s as u32, f as u32));
            }
        }
        merged.sort_unstable();
        self.reserve(merged.iter().map(|&(c, i, ..)| key_of((c, i)).len()));
        let mut first_ids: Vec<Vec<Id>> =
            outs.iter().map(|o| vec![NO_ID; o.firsts.len()]).collect();
        for &(c, i, s, f) in &merged {
            let (c, i) = (c as usize, i as usize);
            let id = self.encode_hashed(batches[c].hash(i), batches[c].key(i));
            ids[c][i] = id;
            first_ids[s as usize][f as usize] = id;
        }
        for (s, out) in outs.iter().enumerate() {
            for &(c, i, f) in &out.dups {
                ids[c as usize][i as usize] = first_ids[s][f as usize];
            }
        }
        ids
    }
}

impl Dictionary {
    /// Read access to the resource namespace, for batch collection
    /// pipelines that probe by precomputed hash.
    pub fn resource_namespace(&self) -> &Namespace {
        &self.resources
    }

    /// Read access to the predicate namespace.
    pub fn predicate_namespace(&self) -> &Namespace {
        &self.predicates
    }

    /// [`Namespace::extend_batches`] on the resource namespace.
    pub fn extend_resources(
        &mut self,
        batches: &[TermBatch],
        shards: usize,
        threads: usize,
    ) -> Vec<Vec<Id>> {
        self.resources.extend_batches(batches, shards, threads)
    }

    /// [`Namespace::extend_batches`] on the predicate namespace.
    pub fn extend_predicates(
        &mut self,
        batches: &[TermBatch],
        shards: usize,
        threads: usize,
    ) -> Vec<Vec<Id>> {
        self.predicates.extend_batches(batches, shards, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(ns: &Namespace, keys: &[&str], seen: &mut Vec<String>) -> TermBatch {
        // Collect phase as the loader performs it: skip keys already in
        // the namespace, dedup within the batch.
        let mut b = TermBatch::new();
        for &k in keys {
            let hash = fx_hash_bytes(k.as_bytes());
            if ns.get_key_hashed(hash, k).is_some() || seen.iter().any(|s| s == k) {
                continue;
            }
            seen.push(k.to_string());
            b.push(hash, k);
        }
        b
    }

    fn ids_match_serial(chunks: &[Vec<&str>], shards: usize, threads: usize) {
        // Serial oracle: encode_key in document order.
        let mut serial = Namespace::new();
        for chunk in chunks {
            for &k in chunk {
                serial.encode_key(k);
            }
        }

        let mut ns = Namespace::new();
        let mut batches = Vec::new();
        for chunk in chunks {
            let mut seen = Vec::new();
            batches.push(batch_of(&ns, chunk, &mut seen));
        }
        let ids = ns.extend_batches(&batches, shards, threads);

        assert_eq!(ns.len(), serial.len());
        for id in 0..ns.len() as Id {
            assert_eq!(ns.key(id), serial.key(id), "id {id} diverges");
        }
        for (c, b) in batches.iter().enumerate() {
            for (i, &id) in ids[c].iter().enumerate() {
                assert_eq!(id, serial.get_key(b.key(i)).unwrap());
            }
        }
    }

    #[test]
    fn matches_serial_insertion_order() {
        let chunks = vec![
            vec!["a", "b", "c", "a"],
            vec!["d", "b", "e"],
            vec!["c", "f", "a", "g"],
        ];
        for shards in [1, 2, 4, 32] {
            for threads in [1, 2, 4, 9] {
                ids_match_serial(&chunks, shards, threads);
            }
        }
    }

    #[test]
    fn respects_preexisting_terms() {
        let mut ns = Namespace::new();
        let pre_a = ns.encode_key("a");
        let pre_b = ns.encode_key("b");
        let mut seen = Vec::new();
        let batches = vec![batch_of(&ns, &["a", "x", "b", "y"], &mut seen)];
        // Only x and y are novel candidates.
        assert_eq!(batches[0].len(), 2);
        let ids = ns.extend_batches(&batches, 8, 2);
        assert_eq!(ids[0], vec![2, 3]);
        assert_eq!(ns.get_key("a"), Some(pre_a));
        assert_eq!(ns.get_key("b"), Some(pre_b));
        assert_eq!(ns.len(), 4);
    }

    #[test]
    fn many_chunks_many_keys() {
        let universe: Vec<String> = (0..500).map(|i| format!("http://e/r{}", i % 170)).collect();
        let chunks: Vec<Vec<&str>> = universe.chunks(37).map(|c| {
            c.iter().map(String::as_str).collect()
        }).collect();
        ids_match_serial(&chunks, 32, 4);
    }

    #[test]
    fn empty_batches_are_fine() {
        let mut ns = Namespace::new();
        let ids = ns.extend_batches(&[], 32, 4);
        assert!(ids.is_empty());
        let ids = ns.extend_batches(&[TermBatch::new(), TermBatch::new()], 32, 4);
        assert_eq!(ids, vec![Vec::<Id>::new(), Vec::new()]);
        assert!(ns.is_empty());
    }
}
