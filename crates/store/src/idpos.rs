//! The ID-to-Position index of §4.2: a rank/select-style bitmap that maps
//! a dictionary id directly to its position in a replica's sorted keys
//! array, replacing binary search with one anchor read plus popcounts.
//!
//! The paper's layout stores, at every `interval` ids, "an integer to
//! denote the position of the property table", followed by one presence
//! bit per id. Finding a position reads that anchor and "counts bits set
//! to 1 up to the position ... corresponding to the value" — a popcount.
//! With interval `A` and `M`-byte integers the space is
//! `N/8 + (N/A)*M` bytes (§4.2); at the paper's LUBM-10240 scale this is
//! ~44.8 MB per replica versus 45.7 GB for a plain position array.

use parj_dict::Id;

/// Rank-based id → keys-position index.
///
/// `interval` must be a multiple of 64 so blocks align to `u64` bitmap
/// words. The default used by the store is 512 (8 words + one `u32`
/// anchor per block ≈ 1.06 bits/id, the same regime as the paper's
/// interval of 480).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdPosIndex {
    /// Number of ids covered (the dictionary's resource count).
    universe: usize,
    /// Ids per block; multiple of 64.
    interval: usize,
    /// `anchors[b]` = number of present ids with id < b*interval.
    anchors: Vec<u32>,
    /// Presence bitmap, `universe.div_ceil(64)` words, padded with zeros.
    bits: Vec<u64>,
}

impl IdPosIndex {
    /// Builds the index for the sorted distinct `keys` of a replica over
    /// a dictionary of `universe` ids.
    ///
    /// # Panics
    /// Panics if `interval` is zero or not a multiple of 64, or if any
    /// key is `>= universe`.
    pub fn build(keys: &[Id], universe: usize, interval: usize) -> Self {
        assert!(
            interval > 0 && interval.is_multiple_of(64),
            "interval must be a positive multiple of 64"
        );
        if let Some(&max) = keys.last() {
            assert!((max as usize) < universe, "key {max} outside universe {universe}");
        }
        let n_words = universe.div_ceil(64);
        let n_blocks = universe.div_ceil(interval);
        let mut bits = vec![0u64; n_words];
        for &k in keys {
            let k = k as usize;
            bits[k / 64] |= 1u64 << (k % 64);
        }
        let words_per_block = interval / 64;
        let mut anchors = Vec::with_capacity(n_blocks);
        let mut running: u32 = 0;
        for b in 0..n_blocks {
            anchors.push(running);
            let start = b * words_per_block;
            let end = ((b + 1) * words_per_block).min(n_words);
            for &w in &bits[start..end] {
                running += w.count_ones();
            }
        }
        debug_assert_eq!(running as usize, keys.len());
        IdPosIndex {
            universe,
            interval,
            anchors,
            bits,
        }
    }

    /// Returns the position of `id` in the replica's keys array, or
    /// `None` if the id is absent (or outside the universe).
    #[inline]
    pub fn lookup(&self, id: Id) -> Option<usize> {
        let id = id as usize;
        if id >= self.universe {
            return None;
        }
        let word_idx = id / 64;
        let bit = id % 64;
        let word = self.bits[word_idx];
        if word & (1u64 << bit) == 0 {
            return None;
        }
        let block = id / self.interval;
        let mut rank = self.anchors[block] as usize;
        // Whole words between the block start and the id's word.
        for &w in &self.bits[block * (self.interval / 64)..word_idx] {
            rank += w.count_ones() as usize;
        }
        // Partial word: bits strictly below `bit`.
        rank += (word & ((1u64 << bit) - 1)).count_ones() as usize;
        Some(rank)
    }

    /// True if `id` is present.
    #[inline]
    pub fn contains(&self, id: Id) -> bool {
        let id = id as usize;
        id < self.universe && self.bits[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Number of ids covered.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Block interval in ids.
    #[inline]
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Memory used by the bitmap and anchors in bytes — the `N/8 +
    /// (N/A)*M` of §4.2.
    pub fn memory_bytes(&self) -> usize {
        self.bits.capacity() * 8 + self.anchors.capacity() * 4
    }

    /// [`IdPosIndex::memory_bytes`] were both arrays allocated exactly.
    #[cfg(test)]
    pub(crate) fn exact_bytes(&self) -> usize {
        self.bits.len() * 8 + self.anchors.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_section42_example() {
        // §4.2 walks through the Figure 1 property (keys 5,7,13,18,24,
        // 29,33,45, dictionary max id 45): position of 5 is 0, of 7 is 1,
        // of 13 is 2, "and so on for positions 18,24,29,33 and 45".
        let keys = [5, 7, 13, 18, 24, 29, 33, 45];
        let idx = IdPosIndex::build(&keys, 46, 64);
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(idx.lookup(k), Some(pos), "key {k}");
        }
        // "If bit is not set, then value is not present".
        for absent in [0, 1, 4, 6, 8, 12, 14, 30, 44] {
            assert_eq!(idx.lookup(absent), None, "id {absent}");
        }
    }

    #[test]
    fn multi_block() {
        // Keys spread over several 64-id blocks, including block borders.
        let keys: Vec<Id> = vec![0, 63, 64, 127, 128, 200, 300, 449];
        let idx = IdPosIndex::build(&keys, 450, 64);
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(idx.lookup(k), Some(pos));
        }
        assert_eq!(idx.lookup(65), None);
        assert_eq!(idx.lookup(449), Some(7));
        assert_eq!(idx.lookup(448), None);
    }

    #[test]
    fn out_of_universe_is_none() {
        let idx = IdPosIndex::build(&[1, 2], 10, 64);
        assert_eq!(idx.lookup(10), None);
        assert_eq!(idx.lookup(Id::MAX), None);
        assert!(!idx.contains(10));
    }

    #[test]
    fn empty_keys() {
        let idx = IdPosIndex::build(&[], 100, 64);
        for id in 0..100 {
            assert_eq!(idx.lookup(id), None);
        }
    }

    #[test]
    fn dense_keys_every_position() {
        let keys: Vec<Id> = (0..1000).collect();
        let idx = IdPosIndex::build(&keys, 1000, 128);
        for k in 0..1000u32 {
            assert_eq!(idx.lookup(k), Some(k as usize));
        }
    }

    #[test]
    fn agrees_with_binary_search_on_random_sets() {
        // Deterministic pseudo-random key sets; oracle = binary search.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let universe = 1 + (next() % 5000) as usize;
            let mut keys: Vec<Id> = (0..(next() % 400))
                .map(|_| (next() % universe as u64) as Id)
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let interval = [64usize, 128, 512][trial % 3];
            let idx = IdPosIndex::build(&keys, universe, interval);
            for probe in 0..universe as Id {
                assert_eq!(
                    idx.lookup(probe),
                    keys.binary_search(&probe).ok(),
                    "trial {trial} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn memory_formula() {
        // §4.2: N/8 bytes of bits + (N/A)*4 bytes of anchors.
        let universe = 512 * 100;
        let idx = IdPosIndex::build(&[0, 511, 51199], universe, 512);
        assert_eq!(idx.memory_bytes(), universe / 8 + (universe / 512) * 4);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_unaligned_interval() {
        IdPosIndex::build(&[], 100, 100);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_key_outside_universe() {
        IdPosIndex::build(&[10], 10, 64);
    }
}
