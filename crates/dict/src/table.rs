//! The crate's one hash index: an open-addressed table of dense ids.
//!
//! Every user numbers its keys densely and stores them elsewhere (an
//! arena, a loader chunk's batch, a shard's first occurrences), so the
//! table holds ids `0..len` and no hashes: a tag byte (`0x80` | 7 hash
//! bits; 0 = empty) and a `u32` per slot. Keys are compared only on a
//! tag match, and growing re-hashes them in id order. The home slot is
//! the multiply-shift of the hash onto the slot count, so any count
//! works and a finished table is sized exactly.

use crate::Id;

/// Highest share of slots in use, as `(numerator, denominator)`: a
/// table holding `n` ids has at least `⌈n / 0.8⌉` slots.
pub(crate) const MAX_LOAD: (usize, usize) = (4, 5);

/// Slots needed to hold `n` ids at [`MAX_LOAD`].
pub(crate) fn slots_for(n: usize) -> usize {
    (n * MAX_LOAD.1).div_ceil(MAX_LOAD.0)
}

/// `0x80` and hash bits 32 to 38: loader shards split keys by the low
/// bits and home slots by the high ones, so these still vary in a run.
fn tag(hash: u64) -> u8 {
    0x80 | ((hash >> 32) as u8 & 0x7f)
}

/// Open-addressed, linearly probed table of dense ids.
#[derive(Debug, Default, Clone)]
pub struct IdTable {
    /// Per slot: 0 if empty, else `tag(hash)` of its key.
    pub(crate) tags: Vec<u8>,
    /// Per slot: the id stored there (meaningless where the tag is 0).
    pub(crate) ids: Vec<Id>,
    len: usize,
}

impl IdTable {
    /// An empty table with exactly the slots `n` ids need.
    pub fn with_capacity(n: usize) -> Self {
        let slots = slots_for(n);
        Self {
            tags: vec![0; slots],
            ids: vec![0; slots],
            len: 0,
        }
    }

    /// Number of slots.
    pub(crate) fn slots(&self) -> usize {
        self.tags.len()
    }

    /// Heap bytes: the allocated capacity of both slot arrays.
    pub fn memory_bytes(&self) -> usize {
        self.tags.capacity() + self.ids.capacity() * size_of::<Id>()
    }

    /// The id under `hash` whose key `same` accepts, or the empty slot
    /// where such a key goes. The table must have a slot.
    #[inline]
    fn probe(&self, hash: u64, same: impl Fn(Id) -> bool) -> Result<Id, usize> {
        let tag = tag(hash);
        let slots = self.tags.len();
        let mut slot = ((u128::from(hash) * slots as u128) >> 64) as usize;
        loop {
            match self.tags[slot] {
                0 => return Err(slot),
                t if t == tag && same(self.ids[slot]) => return Ok(self.ids[slot]),
                _ => slot = if slot + 1 == slots { 0 } else { slot + 1 },
            }
        }
    }

    /// Looks up the key whose hash is `hash`; `same(id)` tells whether
    /// id `id` holds it.
    #[inline]
    pub fn find(&self, hash: u64, same: impl Fn(Id) -> bool) -> Option<Id> {
        (!self.tags.is_empty()).then(|| self.probe(hash, same).ok())?
    }

    /// Like [`IdTable::find`]; when the key is absent, gives it the next
    /// id (the number of ids stored) and returns `None`. A full table first
    /// doubles (8 ids at least), re-hashing ids `0..len` in order from `hashes()`.
    pub fn find_or_insert<I: IntoIterator<Item = u64>>(
        &mut self,
        hash: u64,
        same: impl Fn(Id) -> bool,
        hashes: impl FnOnce() -> I,
    ) -> Option<Id> {
        let mut free = None;
        if !self.tags.is_empty() {
            match self.probe(hash, same) {
                Ok(id) => return Some(id),
                Err(slot) => free = Some(slot),
            }
        }
        if (self.len + 1) * MAX_LOAD.1 > self.slots() * MAX_LOAD.0 {
            let old = std::mem::replace(self, Self::with_capacity((self.len * 2).max(8)));
            for h in hashes().into_iter().take(old.len) {
                self.place(h, None);
            }
            free = None;
        }
        self.place(hash, free);
        None
    }

    /// Stores the next id under `hash`, in `free` if the caller already
    /// probed for it.
    fn place(&mut self, hash: u64, free: Option<usize>) {
        let slot = free.unwrap_or_else(|| self.probe(hash, |_| false).expect_err("a free slot"));
        self.tags[slot] = tag(hash);
        self.ids[slot] = self.len as Id;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash_bytes;
    use std::collections::HashMap;

    /// Keys stored beside the table, the way every user keeps them.
    struct Model {
        table: IdTable,
        keys: Vec<String>,
        hash: fn(&str) -> u64,
    }

    impl Model {
        fn new(hash: fn(&str) -> u64) -> Self {
            Self {
                table: IdTable::default(),
                keys: Vec::new(),
                hash,
            }
        }

        fn encode(&mut self, key: &str) -> Id {
            let (keys, hash) = (&self.keys, self.hash);
            let hit = self.table.find_or_insert(
                hash(key),
                |id| keys[id as usize] == key,
                || keys.iter().map(|k| hash(k)),
            );
            hit.unwrap_or_else(|| {
                self.keys.push(key.to_string());
                self.keys.len() as Id - 1
            })
        }

        fn find(&self, key: &str) -> Option<Id> {
            self.table
                .find((self.hash)(key), |id| self.keys[id as usize] == key)
        }
    }

    fn fx(k: &str) -> u64 {
        fx_hash_bytes(k.as_bytes())
    }

    /// Drives the table and a `HashMap` model with the same key stream
    /// and checks every answer, plus the load bound after each insert.
    fn agrees_with_hash_map(hash: fn(&str) -> u64, keys: impl Iterator<Item = String>) {
        let mut table = Model::new(hash);
        let mut model: HashMap<String, Id> = HashMap::new();
        for key in keys {
            let next = model.len() as Id;
            let expected = *model.entry(key.clone()).or_insert(next);
            assert_eq!(table.find(&key), (expected != next).then_some(expected));
            assert_eq!(table.encode(&key), expected, "key {key:?}");
            assert_eq!(table.table.len, model.len());
            assert!(table.table.len * MAX_LOAD.1 <= table.table.slots() * MAX_LOAD.0);
        }
        for (key, &id) in &model {
            assert_eq!(table.find(key), Some(id));
            assert_eq!(table.find(&format!("{key}~")), None);
        }
    }

    #[test]
    fn matches_hash_map_through_ten_doublings() {
        // 6 000 distinct keys, each seen about twice, from an empty table:
        // 10 → 20 → … → 10 240 slots is ten doublings.
        let keys = (0..12_000u64).map(|i| format!("http://e/r{}", i.wrapping_mul(0x9e37) % 6_000));
        agrees_with_hash_map(fx, keys);
        let mut t = Model::new(fx);
        (0..6_000).for_each(|i| {
            t.encode(&format!("k{i}"));
        });
        assert_eq!(t.table.slots(), slots_for(8) << 10);
    }

    #[test]
    fn tags_vary_when_low_hash_bits_are_shared() {
        // One loader shard's keys: the low bits all route to the shard.
        let shard = |k: &str| fx(k) << 7 | 0x55;
        agrees_with_hash_map(shard, (0..3_000).map(|i| format!("k{}", i % 1_000)));
        let mut t = Model::new(shard);
        (0..1_000).for_each(|i| {
            t.encode(&format!("k{i}"));
        });
        let mut seen = [false; 256];
        t.table
            .tags
            .iter()
            .for_each(|&tag| seen[usize::from(tag)] = true);
        assert!(seen[0x80..].iter().filter(|&&s| s).count() > 120);
    }

    #[test]
    fn matches_hash_map_when_every_hash_collides() {
        let keys = (0..600u32).map(|i| format!("k{}", (i * 7) % 250));
        agrees_with_hash_map(|_| 0x0123_4567_89ab_cdef, keys);
        // Same tag, different home slots: tags alone never decide.
        let keys = (0..300u32).map(|i| format!("k{}", i % 120));
        agrees_with_hash_map(|k| (k.len() as u64) << 60 | 5 << 32, keys);
    }

    proptest::proptest! {
        /// Short keys over a small alphabet: repeats and shared
        /// prefixes are common, and tags collide often.
        #[test]
        fn random_streams_match_hash_map(
            keys in proptest::collection::vec(proptest::string::string_regex("[ab]{0,6}").unwrap(), 0..400)
        ) {
            agrees_with_hash_map(fx, keys.into_iter());
        }
    }

    #[test]
    fn max_load_is_four_fifths() {
        assert_eq!(MAX_LOAD, (4, 5));
        assert_eq!(slots_for(0), 0);
        assert_eq!(slots_for(4), 5);
        assert_eq!(slots_for(1_000), 1_250);
        for n in 4..5_000 {
            let load = n as f64 / slots_for(n) as f64;
            assert!((0.7..=0.8).contains(&load), "n {n}: load {load}");
        }
        // An exactly sized table takes its n ids without growing.
        let mut t = Model::new(fx);
        t.table = IdTable::with_capacity(100);
        (0..100).for_each(|i| {
            t.encode(&i.to_string());
        });
        assert_eq!(t.table.slots(), 125);
        assert_eq!(t.table.memory_bytes(), 125 * 5);
    }
}
