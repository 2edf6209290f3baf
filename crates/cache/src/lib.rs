//! # parj-cache — plan & result caching with generation-safe invalidation
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
//! with `budget / shards` bytes of capacity, so concurrent readers of a
//! [`SharedParj`](https://docs.rs/parj-core) rarely contend on the same
//! lock.
//!
//! ## Generation-safe invalidation
//!
//! Full store rebuilds reduce cache coherence to one monotonic counter:
//! the [`GenerationCounter`] is bumped (release) every time the engine
//! publishes a rebuilt store, every entry is stamped with the
//! generation it was computed under, and [`ShardedLru::lookup`] refuses
//! (and lazily removes) entries whose stamp differs from the generation
//! the caller read (acquire) at the start of its request. A stale entry
//! is therefore *never* served: a reader either sees the new generation
//! number (and misses) or the old store (and the old entry is still the
//! right answer). The `loom_cache` model in this crate's test suite
//! checks that protocol under exhaustive schedule injection.
//!
//! ## Per-predicate epochs (incremental mutations)
//!
//! Delta-store mutations do not rebuild the store, so bumping the
//! generation for every write batch would throw away *every* cached
//! answer even when the batch touched a single predicate. Instead the
//! [`QueryCache`] keeps a monotonic **epoch per predicate id**: a write
//! batch calls [`QueryCache::bump_predicates`] with exactly the
//! predicates it touched, and every entry is additionally stamped with
//! the **epoch sum** over the predicates its query reads (computed by
//! the engine via [`QueryCache::epoch_sum`]). Because epochs only grow,
//! any write to any predicate a cached query depends on changes that
//! query's epoch sum, so the entry stops matching and is lazily
//! removed — while entries whose predicate set is disjoint from the
//! write keep serving hits. Sums (rather than e.g. hashes of epoch
//! vectors) are safe for the same reason the generation counter is:
//! they are monotone in every coordinate, so distinct states a single
//! query can observe never collide.
//!
//! This crate is deliberately engine-agnostic: it knows nothing about
//! metrics, SPARQL, or the dictionary. `parj-core` computes
//! fingerprints, decides bypasses, and records hit/miss/eviction
//! observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use parj_sync::atomic::{AtomicU64, Ordering};
use parj_sync::{LockLevel, OrderedMutex};

pub use parj_join::{PhysicalPlan, RowBatch};

/// Number of independent LRU shards per cache. A small power of two:
/// enough to keep concurrent readers off each other's locks, few
/// enough that the per-shard byte budget stays meaningful.
pub const CACHE_SHARDS: usize = 8;

/// The engine's store generation: a monotonic counter bumped every
/// time a rebuilt store is published (finalize after staging, snapshot
/// adoption). Cache entries are stamped with the generation they were
/// computed under; lookups carry the generation their request started
/// under.
#[derive(Debug)]
pub struct GenerationCounter(AtomicU64);

impl Default for GenerationCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl GenerationCounter {
    /// A counter starting at generation zero.
    pub const fn new() -> Self {
        GenerationCounter(AtomicU64::new(0))
    }

    /// The current store generation.
    pub fn store_generation(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bump in `bump()`;
        // a reader that observes generation g also observes every store
        // write published before that bump, so an entry stamped g is
        // consistent with the store the reader queries.
        self.0.load(Ordering::Acquire)
    }

    /// Bumps the generation after a new store has been published and
    /// returns the new value.
    pub fn bump(&self) -> u64 {
        // ordering: AcqRel — Release publishes the store writes that
        // precede the bump to any reader that Acquire-loads the new
        // value; Acquire keeps consecutive bumps totally ordered.
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// One cached value plus its bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Store generation the value was computed under.
    generation: u64,
    /// Sum of the per-predicate epochs (over the predicates the cached
    /// query reads) at the time the value was computed.
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
        Shard { map: HashMap::new(), bytes: 0, clock: 0 }
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

/// A byte-budgeted, generation-checked, sharded LRU map from opaque
/// byte keys to clonable values.
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
    /// `generation` *and* exactly `epoch_sum` (the caller's sum of
    /// per-predicate epochs over the query's predicate set). A
    /// present-but-stale entry (older on either axis) is removed and
    /// reported as a miss — stale answers are never returned. An entry
    /// stamped *newer* on either axis is kept but not served: a probe
    /// carrying an old stamp (impossible in the engine, whose borrow
    /// rules pin a request's generation and epochs for its whole run,
    /// but reachable in adversarial models) must not evict fresh work.
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
            Some(e) if e.generation > generation || e.epoch_sum > epoch_sum => {
                return None
            }
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
        shard
            .map
            .insert(key, Entry { value, generation, epoch_sum, cost, tick });
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
        let steps: usize = self.plans.iter().map(|p| p.steps.len()).sum();
        128 + steps * 96
            + self
                .plans
                .iter()
                .map(|p| p.projection.len() * 8)
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

/// The engine-facing bundle: one generation counter and one
/// per-predicate epoch table governing a plan cache and a result cache.
#[derive(Debug)]
pub struct QueryCache {
    generation: GenerationCounter,
    /// Monotonic epoch per predicate id, bumped by delta-store write
    /// batches for exactly the predicates they touch. Sparse: a
    /// predicate absent from the map has epoch 0.
    pred_epochs: OrderedMutex<HashMap<u32, u64>>,
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
            generation: GenerationCounter::new(),
            pred_epochs: OrderedMutex::new(
                LockLevel::CacheEpoch,
                "cache.pred_epochs",
                HashMap::new(),
            ),
            plan: ShardedLru::new(plan_budget),
            result: ShardedLru::new(result_budget_bytes),
        }
    }

    /// The current store generation (acquire).
    pub fn store_generation(&self) -> u64 {
        self.generation.store_generation()
    }

    /// Bumps the store generation after a rebuilt store is published.
    /// Existing entries become unservable immediately (checked on
    /// lookup) and are reclaimed lazily. Also clears the per-predicate
    /// epoch table: a rebuild invalidates everything, so fresh entries
    /// may start again from epoch-sum zero.
    pub fn bump_generation(&self) -> u64 {
        // Order matters for correctness under concurrent readers: the
        // generation bump must land *after* the epoch clear, so a
        // reader that still observes the old generation also observes
        // the old (non-cleared) epochs via the mutex, and a reader
        // that observes the new generation can only hit entries
        // stamped with it — which were inserted after this point.
        let mut epochs = self.pred_epochs.lock();
        epochs.clear();
        let g = self.generation.bump();
        drop(epochs);
        g
    }

    /// Sum of the current epochs of `preds` (predicate ids; callers
    /// pass the deduplicated set of concrete predicates a query
    /// reads). Monotone in every coordinate, so two states a query can
    /// distinguish never share a sum.
    pub fn epoch_sum(&self, preds: &[u32]) -> u64 {
        let epochs = self.pred_epochs.lock();
        preds
            .iter()
            .map(|p| epochs.get(p).copied().unwrap_or(0))
            .sum()
    }

    /// Bumps the epoch of every predicate in `preds` (deduplicated
    /// defensively: a repeated id is bumped once). Returns the number
    /// of distinct predicates bumped — the per-batch invalidation
    /// count the observability layer reports.
    pub fn bump_predicates(&self, preds: &[u32]) -> u64 {
        let mut epochs = self.pred_epochs.lock();
        let mut bumped = 0u64;
        let mut seen: Vec<u32> = Vec::with_capacity(preds.len());
        for &p in preds {
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            *epochs.entry(p).or_insert(0) += 1;
            bumped += 1;
        }
        bumped
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
    fn generation_counter_bumps_monotonically() {
        let g = GenerationCounter::new();
        assert_eq!(g.store_generation(), 0);
        assert_eq!(g.bump(), 1);
        assert_eq!(g.bump(), 2);
        assert_eq!(g.store_generation(), 2);
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
    fn predicate_epochs_bump_and_sum() {
        let qc = QueryCache::new(1 << 20);
        assert_eq!(qc.epoch_sum(&[1, 2, 3]), 0);
        // Duplicates in a batch count once.
        assert_eq!(qc.bump_predicates(&[1, 2, 2]), 2);
        assert_eq!(qc.epoch_sum(&[1]), 1);
        assert_eq!(qc.epoch_sum(&[1, 2]), 2);
        // A disjoint predicate set is untouched.
        assert_eq!(qc.epoch_sum(&[3, 4]), 0);
        assert_eq!(qc.bump_predicates(&[1]), 1);
        assert_eq!(qc.epoch_sum(&[1, 2, 3]), 3);
    }

    #[test]
    fn per_predicate_invalidation_spares_disjoint_entries() {
        let qc = QueryCache::new(1 << 20);
        let e = |n| ResultEntry { value: CachedResult::Count(n), exec_micros: 1 };
        let gen_now = qc.store_generation();
        // Query A reads predicate 1; query B reads predicate 7.
        let sum_a = qc.epoch_sum(&[1]);
        let sum_b = qc.epoch_sum(&[7]);
        qc.results().insert(b"qa".to_vec(), e(1), 96, gen_now, sum_a);
        qc.results().insert(b"qb".to_vec(), e(2), 96, gen_now, sum_b);
        // A write batch touching predicate 1 only.
        qc.bump_predicates(&[1]);
        // Query A's stamp no longer matches; query B still hits.
        assert!(qc
            .results()
            .lookup(b"qa", gen_now, qc.epoch_sum(&[1]))
            .is_none());
        assert!(qc
            .results()
            .lookup(b"qb", gen_now, qc.epoch_sum(&[7]))
            .is_some());
    }

    #[test]
    fn generation_bump_resets_predicate_epochs() {
        let qc = QueryCache::new(1 << 20);
        qc.bump_predicates(&[1, 2]);
        assert_eq!(qc.epoch_sum(&[1, 2]), 2);
        qc.bump_generation();
        assert_eq!(qc.epoch_sum(&[1, 2]), 0);
    }

    #[test]
    fn query_cache_bundle_wires_both_tiers() {
        let qc = QueryCache::new(1 << 20);
        assert_eq!(qc.store_generation(), 0);
        let entry = ResultEntry { value: CachedResult::Count(42), exec_micros: 10 };
        let cost = entry.cost();
        qc.results().insert(b"f".to_vec(), entry, cost, 0, 0);
        match qc.results().lookup(b"f", 0, 0) {
            Some(ResultEntry { value: CachedResult::Count(42), .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        qc.bump_generation();
        assert!(qc.results().lookup(b"f", 1, 0).is_none());
    }
}
