//! # parj-cache — plan & result caching with stamp-checked entries
//!
//! The serving tier of the engine: once a query has been parsed,
//! translated, and canonicalized (`parj-core`), its **fingerprint**
//! keys two byte-budgeted caches:
//!
//! * a **plan cache** holding the optimizer's left-deep
//!   [`PhysicalPlan`]s, so repeated shapes skip the optimize phase, and
//! * a **result cache** holding finished counts or id-row batches
//!   ([`RowBatch`]), so exact repeats skip execution entirely.
//!
//! Both sit behind a [`ShardedLru`]: keys are hashed to one of a fixed
//! number of shards, each shard is an independent mutex-protected LRU
//! with `budget / shards` bytes of capacity, so concurrent readers of
//! one shared engine rarely contend on the same lock.
//!
//! ## Stamped entries
//!
//! Every entry carries two stamps supplied by the caller — a
//! *generation* and an *epoch sum* — and [`ShardedLru::lookup`] serves
//! only an entry whose stamps equal the probe's. An entry stamped older
//! on either axis is removed (it can never be served again); one
//! stamped newer is kept, because the probe is the stale party. The
//! cache has no clock of its own: `parj-core` keeps the stamps in each
//! published engine version, and a request probes and inserts with the
//! stamps of the version it pinned. The `loom_cache` model checks that
//! a lookup serves only equal stamps while inserts of older and newer
//! stamps race it.
//!
//! This crate is deliberately engine-agnostic: it knows nothing about
//! metrics, SPARQL, or the dictionary. `parj-core` computes
//! fingerprints, decides bypasses, and records hit/miss/eviction
//! observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use parj_sync::{LockLevel, OrderedMutex};

pub use parj_join::{PhysicalPlan, RowBatch};

/// Number of independent LRU shards per cache. A small power of two:
/// enough to keep concurrent readers off each other's locks, few
/// enough that the per-shard byte budget stays meaningful.
pub const CACHE_SHARDS: usize = 8;

/// One cached value plus its bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// The caller's generation stamp at insert.
    generation: u64,
    /// The caller's epoch-sum stamp at insert.
    epoch_sum: u64,
    /// Charged size in bytes (key + payload estimate).
    cost: usize,
    /// Recency stamp: larger = more recently used.
    tick: u64,
}

/// One mutex-protected LRU shard.
#[derive(Debug)]
struct Shard<V> {
    map: HashMap<Vec<u8>, Entry<V>>,
    /// Sum of `Entry::cost` over `map`.
    bytes: usize,
    /// Monotonic recency clock for this shard.
    clock: u64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            bytes: 0,
            clock: 0,
        }
    }

    /// Evicts least-recently-used entries until `need` extra bytes fit
    /// under `budget`. Returns the number of entries evicted.
    fn make_room(&mut self, need: usize, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes + need > budget && !self.map.is_empty() {
            // O(n) scan for the oldest tick. Shard populations are
            // small (budget-bounded, split 1/CACHE_SHARDS), so a scan
            // beats maintaining an intrusive list for the sizes seen
            // here.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = self.map.remove(&k) {
                        self.bytes -= e.cost.min(self.bytes);
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }
}

/// FNV-1a over the key; any stable spread works, and this keeps the
/// crate dependency-free.
fn shard_index(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % CACHE_SHARDS
}

/// A byte-budgeted, stamp-checked, sharded LRU map from opaque byte
/// keys to clonable values.
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<OrderedMutex<Shard<V>>>,
    /// Per-shard byte budget (total budget / CACHE_SHARDS).
    shard_budget: usize,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache holding at most `budget_bytes` across all shards.
    pub fn new(budget_bytes: usize) -> Self {
        let shards = (0..CACHE_SHARDS)
            .map(|_| OrderedMutex::new(LockLevel::CacheShard, "cache.shard", Shard::new()))
            .collect();
        ShardedLru {
            shards,
            shard_budget: budget_bytes / CACHE_SHARDS,
        }
    }

    fn shard_for(&self, key: &[u8]) -> &OrderedMutex<Shard<V>> {
        &self.shards[shard_index(key)]
    }

    /// Looks up `key`, serving only values stamped with exactly
    /// `generation` *and* exactly `epoch_sum`. A present-but-stale
    /// entry (older on either axis) is removed and reported as a miss —
    /// stale answers are never returned. An entry stamped *newer* on
    /// either axis is kept but not served: a probe carrying old stamps
    /// (a request still running on a version a writer has since
    /// replaced) must not evict fresh work.
    pub fn lookup(&self, key: &[u8], generation: u64, epoch_sum: u64) -> Option<V> {
        let mut shard = self.shard_for(key).lock();
        shard.clock += 1;
        let tick = shard.clock;
        match shard.map.get_mut(key) {
            None => return None,
            Some(e) if e.generation == generation && e.epoch_sum == epoch_sum => {
                e.tick = tick;
                return Some(e.value.clone());
            }
            Some(e) if e.generation > generation || e.epoch_sum > epoch_sum => return None,
            Some(_) => {}
        }
        // Present but stamped older on some axis: remove it so the
        // budget is not held by unservable entries, and report a miss.
        if let Some(e) = shard.map.remove(key) {
            shard.bytes -= e.cost.min(shard.bytes);
        }
        None
    }

    /// Inserts `value` under `key`, stamped with `generation` and
    /// `epoch_sum` and charged `cost` bytes. Evicts
    /// least-recently-used entries from the target shard until the
    /// entry fits; an entry whose cost exceeds a whole shard's budget
    /// is skipped (not cached) rather than evicting everything for one
    /// oversized tenant. Returns the number of entries evicted.
    pub fn insert(
        &self,
        key: Vec<u8>,
        value: V,
        cost: usize,
        generation: u64,
        epoch_sum: u64,
    ) -> u64 {
        let cost = cost.max(key.len());
        if cost > self.shard_budget {
            return 0;
        }
        let mut shard = self.shard_for(&key).lock();
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.cost.min(shard.bytes);
        }
        let evicted = shard.make_room(cost, self.shard_budget);
        shard.clock += 1;
        let tick = shard.clock;
        shard.bytes += cost;
        shard.map.insert(
            key,
            Entry {
                value,
                generation,
                epoch_sum,
                cost,
                tick,
            },
        );
        evicted
    }

    /// Total bytes currently charged across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes as u64).sum()
    }

    /// Total number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            shard.map.clear();
            shard.bytes = 0;
        }
    }
}

/// A cached optimizer outcome: one physical plan per pattern set of the
/// translated query, plus how long the optimize phase took to produce
/// them (reported as "time saved" on a hit).
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// The optimized left-deep plans, one per pattern set.
    pub plans: parj_sync::Arc<Vec<PhysicalPlan>>,
    /// Microseconds the optimize phase took on the populating run.
    pub optimize_micros: u64,
}

impl PlanEntry {
    /// Approximate resident cost in bytes.
    pub fn cost(&self) -> usize {
        // Steps dominate: a PlanStep plus its compiled form is a few
        // machine words; 96 bytes per step is a safe overestimate.
        let steps: usize = self.plans.iter().map(|p| p.steps().len()).sum();
        128 + steps * 96
            + self
                .plans
                .iter()
                .map(|p| p.projection().len() * 8)
                .sum::<usize>()
    }
}

/// A finished answer, in the engine's pre-decode representation.
#[derive(Debug, Clone)]
pub enum CachedResult {
    /// A silent-mode count (the paper's count-only execution).
    Count(u64),
    /// Materialized id rows, shared by reference with every outcome
    /// served from the entry (terms are resolved when it is read).
    Rows(parj_sync::Arc<RowBatch>),
}

/// A cached result plus the execute+decode time the populating run
/// spent, reported as "time saved" on a hit.
#[derive(Debug, Clone)]
pub struct ResultEntry {
    /// The cached answer.
    pub value: CachedResult,
    /// Microseconds of execute time the populating run spent.
    pub exec_micros: u64,
}

impl ResultEntry {
    /// Approximate resident cost in bytes.
    pub fn cost(&self) -> usize {
        match &self.value {
            CachedResult::Count(_) => 96,
            CachedResult::Rows(b) => 96 + b.data().len() * 8,
        }
    }
}

/// The engine-facing bundle: a plan cache and a result cache.
#[derive(Debug)]
pub struct QueryCache {
    /// Plans are tiny; give them a slice of the budget with a floor so
    /// a small result budget cannot starve plan reuse.
    plan: ShardedLru<PlanEntry>,
    result: ShardedLru<ResultEntry>,
}

impl QueryCache {
    /// A cache whose result tier holds at most `result_budget_bytes`.
    pub fn new(result_budget_bytes: usize) -> Self {
        let plan_budget = (result_budget_bytes / 16).max(1 << 20);
        QueryCache {
            plan: ShardedLru::new(plan_budget),
            result: ShardedLru::new(result_budget_bytes),
        }
    }

    /// The plan cache.
    pub fn plans(&self) -> &ShardedLru<PlanEntry> {
        &self.plan
    }

    /// The result cache.
    pub fn results(&self) -> &ShardedLru<ResultEntry> {
        &self.result
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn lookup_roundtrip_and_miss() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        assert_eq!(lru.lookup(b"k1", 0, 0), None);
        lru.insert(b"k1".to_vec(), 7, 100, 0, 0);
        assert_eq!(lru.lookup(b"k1", 0, 0), Some(7));
        assert_eq!(lru.lookup(b"k2", 0, 0), None);
        assert_eq!(lru.len(), 1);
        assert!(lru.resident_bytes() >= 100);
    }

    #[test]
    fn stale_generation_never_served() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        lru.insert(b"k".to_vec(), 1, 64, 0, 0);
        // Newer reader: entry is stale, removed, not served.
        assert_eq!(lru.lookup(b"k", 1, 0), None);
        // And it is really gone, not hidden.
        assert_eq!(lru.lookup(b"k", 0, 0), None);
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.resident_bytes(), 0);
    }

    #[test]
    fn stale_probe_does_not_evict_fresh_entry() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        lru.insert(b"k".to_vec(), 2, 64, 1, 0);
        // A probe carrying an older generation misses but must leave
        // the current-generation entry in place.
        assert_eq!(lru.lookup(b"k", 0, 0), None);
        assert_eq!(lru.lookup(b"k", 1, 0), Some(2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn budget_evicts_lru_first() {
        // One shard's budget is total/CACHE_SHARDS; use keys that land
        // in the same shard by brute force.
        let lru: ShardedLru<u32> = ShardedLru::new(CACHE_SHARDS * 256);
        // Find three keys hashing to the same shard.
        let mut same = Vec::new();
        'outer: for a in 0u8..=255 {
            for b in 0u8..=255 {
                let k = vec![a, b];
                if shard_index(&k) == 0 {
                    same.push(k);
                    if same.len() == 3 {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(same.len(), 3);
        lru.insert(same[0].clone(), 0, 100, 0, 0);
        lru.insert(same[1].clone(), 1, 100, 0, 0);
        // Touch entry 0 so entry 1 is the LRU victim.
        assert_eq!(lru.lookup(&same[0], 0, 0), Some(0));
        let evicted = lru.insert(same[2].clone(), 2, 100, 0, 0);
        assert_eq!(evicted, 1);
        assert_eq!(lru.lookup(&same[0], 0, 0), Some(0));
        assert_eq!(lru.lookup(&same[1], 0, 0), None);
        assert_eq!(lru.lookup(&same[2], 0, 0), Some(2));
    }

    #[test]
    fn oversized_entry_is_skipped() {
        let lru: ShardedLru<u32> = ShardedLru::new(CACHE_SHARDS * 128);
        lru.insert(b"small".to_vec(), 1, 64, 0, 0);
        let evicted = lru.insert(b"huge".to_vec(), 2, 4096, 0, 0);
        assert_eq!(evicted, 0);
        assert_eq!(lru.lookup(b"huge", 0, 0), None);
        // The small resident entry survived the oversized offer.
        assert_eq!(lru.lookup(b"small", 0, 0), Some(1));
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        lru.insert(b"k".to_vec(), 1, 100, 0, 0);
        lru.insert(b"k".to_vec(), 2, 200, 0, 0);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.resident_bytes(), 200);
        assert_eq!(lru.lookup(b"k", 0, 0), Some(2));
    }

    #[test]
    fn stale_epoch_sum_never_served() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        lru.insert(b"k".to_vec(), 9, 64, 0, 3);
        // Same generation, advanced epoch sum: stale, removed.
        assert_eq!(lru.lookup(b"k", 0, 4), None);
        assert_eq!(lru.lookup(b"k", 0, 3), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn stale_epoch_probe_does_not_evict_fresh_entry() {
        let lru: ShardedLru<u32> = ShardedLru::new(1 << 20);
        lru.insert(b"k".to_vec(), 9, 64, 0, 5);
        assert_eq!(lru.lookup(b"k", 0, 2), None);
        assert_eq!(lru.lookup(b"k", 0, 5), Some(9));
    }

    #[test]
    fn query_cache_bundle_wires_both_tiers() {
        let qc = QueryCache::new(1 << 20);
        let entry = ResultEntry {
            value: CachedResult::Count(42),
            exec_micros: 10,
        };
        let cost = entry.cost();
        qc.results().insert(b"f".to_vec(), entry, cost, 0, 0);
        match qc.results().lookup(b"f", 0, 0) {
            Some(ResultEntry {
                value: CachedResult::Count(42),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(qc.results().lookup(b"f", 1, 0).is_none());
        assert!(qc.plans().is_empty());
    }
}
