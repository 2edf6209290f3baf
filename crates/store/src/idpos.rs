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
//!
//! Here `N` is the span of a replica's keys (last − first + 1), not the
//! dictionary's size, and an index exists only where those bytes are at
//! most the keys array's own ([`IdPosIndex::pays`]). The paper notes
//! that the system "can operate without all or some of these indexes";
//! replicas without one are searched by galloping from the cursor.

use parj_dict::Id;

/// Rank-based id → keys-position index over the span of its keys.
///
/// The bitmap and anchors cover only the ids `first..=last` of the keys
/// they map, not the whole dictionary: bit `i` stands for id `first +
/// i`, and ids outside the span miss without touching the bitmap. Stores
/// build an index only where it is no larger than the keys array
/// ([`IdPosIndex::pays`]).
///
/// `interval` must be a multiple of 64 so blocks align to `u64` bitmap
/// words. The default used by the store is 512 (8 words + one `u32`
/// anchor per block ≈ 1.06 bits/id, the same regime as the paper's
/// interval of 480).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdPosIndex {
    /// The smallest key (0 when there are none).
    first: Id,
    /// Ids covered, `last - first + 1` (0 when there are no keys).
    span: usize,
    /// Ids per block; multiple of 64.
    interval: usize,
    /// `anchors[b]` = number of keys below `first + b*interval`.
    anchors: Vec<u32>,
    /// Presence bitmap, `span.div_ceil(64)` words, padded with zeros.
    bits: Vec<u64>,
}

/// Panics unless `interval` is a positive multiple of 64.
fn check_interval(interval: usize) {
    assert!(
        interval > 0 && interval.is_multiple_of(64),
        "interval must be a positive multiple of 64"
    );
}

/// Ids from the first to the last of the sorted `keys`, inclusive.
fn span_of(keys: &[Id]) -> usize {
    match (keys.first(), keys.last()) {
        (Some(&first), Some(&last)) => (last - first) as usize + 1,
        _ => 0,
    }
}

impl IdPosIndex {
    /// Bytes an index over the sorted `keys` takes at `interval`: the
    /// `N/8 + (N/A)*4` of §4.2, with `N` the keys' span.
    fn bytes_for(keys: &[Id], interval: usize) -> usize {
        check_interval(interval);
        let span = span_of(keys);
        span.div_ceil(64) * 8 + span.div_ceil(interval) * 4
    }

    /// True when an index over `keys` is no larger than the keys array
    /// itself. Stores build an index exactly where this holds: a larger
    /// one would cost more memory than the array it saves searching.
    ///
    /// # Panics
    /// Panics if `interval` is zero or not a multiple of 64.
    pub fn pays(keys: &[Id], interval: usize) -> bool {
        Self::bytes_for(keys, interval) <= std::mem::size_of_val(keys)
    }

    /// Builds the index for the sorted distinct `keys` of a replica.
    ///
    /// # Panics
    /// Panics if `interval` is zero or not a multiple of 64.
    pub fn build(keys: &[Id], interval: usize) -> Self {
        check_interval(interval);
        let first = keys.first().copied().unwrap_or(0);
        let span = span_of(keys);
        let n_words = span.div_ceil(64);
        let n_blocks = span.div_ceil(interval);
        let mut bits = vec![0u64; n_words];
        for &k in keys {
            let k = (k - first) as usize;
            bits[k / 64] |= 1u64 << (k % 64);
        }
        let words_per_block = interval / 64;
        let mut anchors = Vec::with_capacity(n_blocks);
        let mut running: u32 = 0;
        for block in bits.chunks(words_per_block) {
            anchors.push(running);
            running += block.iter().map(|w| w.count_ones()).sum::<u32>();
        }
        debug_assert_eq!(running as usize, keys.len());
        IdPosIndex {
            first,
            span,
            interval,
            anchors,
            bits,
        }
    }

    /// Returns the position of `id` in the replica's keys array, or
    /// `None` if the id is absent (or outside the keys' span).
    #[inline]
    pub fn lookup(&self, id: Id) -> Option<usize> {
        // Ids below `first` wrap to offsets of at least `span`.
        let off = id.wrapping_sub(self.first) as usize;
        if off >= self.span {
            return None;
        }
        let word_idx = off / 64;
        let bit = off % 64;
        let word = self.bits[word_idx];
        if word & (1u64 << bit) == 0 {
            return None;
        }
        let block = off / self.interval;
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
        let off = id.wrapping_sub(self.first) as usize;
        off < self.span && self.bits[off / 64] & (1u64 << (off % 64)) != 0
    }

    /// Block interval in ids.
    #[inline]
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Memory used by the bitmap and anchors in bytes — the `N/8 +
    /// (N/A)*M` of §4.2 over the keys' span.
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
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn paper_section42_example() {
        // §4.2 walks through the Figure 1 property (keys 5,7,13,18,24,
        // 29,33,45): position of 5 is 0, of 7 is 1, of 13 is 2, "and so
        // on for positions 18,24,29,33 and 45".
        let keys = [5, 7, 13, 18, 24, 29, 33, 45];
        let idx = IdPosIndex::build(&keys, 64);
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(idx.lookup(k), Some(pos), "key {k}");
        }
        // "If bit is not set, then value is not present".
        for absent in [0, 1, 4, 6, 8, 12, 14, 30, 44, 46] {
            assert_eq!(idx.lookup(absent), None, "id {absent}");
        }
    }

    #[test]
    fn multi_block() {
        // Keys spread over several 64-id blocks, including block borders.
        let keys: Vec<Id> = vec![0, 63, 64, 127, 128, 200, 300, 449];
        let idx = IdPosIndex::build(&keys, 64);
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(idx.lookup(k), Some(pos));
        }
        assert_eq!(idx.lookup(65), None);
        assert_eq!(idx.lookup(449), Some(7));
        assert_eq!(idx.lookup(448), None);
    }

    #[test]
    fn outside_span_is_none() {
        let idx = IdPosIndex::build(&[100, 102], 64);
        for id in [0, 99, 103, 164, Id::MAX] {
            assert_eq!(idx.lookup(id), None, "id {id}");
            assert!(!idx.contains(id), "id {id}");
        }
        assert_eq!(idx.lookup(102), Some(1));
    }

    #[test]
    fn empty_keys() {
        let idx = IdPosIndex::build(&[], 64);
        assert_eq!(idx.memory_bytes(), 0);
        for id in [0, 1, 100, Id::MAX] {
            assert_eq!(idx.lookup(id), None);
        }
    }

    #[test]
    fn dense_keys_every_position() {
        let keys: Vec<Id> = (0..1000).collect();
        let idx = IdPosIndex::build(&keys, 128);
        for k in 0..1000u32 {
            assert_eq!(idx.lookup(k), Some(k as usize));
        }
    }

    #[test]
    fn memory_formula() {
        // §4.2: N/8 bytes of bits + (N/A)*4 bytes of anchors, with N the
        // span of the keys, not the dictionary.
        let keys = [1000, 1511, 52199];
        let span: usize = 52199 - 1000 + 1;
        let idx = IdPosIndex::build(&keys, 512);
        let want = span.div_ceil(64) * 8 + span.div_ceil(512) * 4;
        assert_eq!(idx.memory_bytes(), want);
        assert_eq!(IdPosIndex::bytes_for(&keys, 512), want);
    }

    #[test]
    fn pays_only_when_no_larger_than_keys() {
        // One key: 8 bytes of bitmap + 4 of anchor against 4 of keys.
        assert!(!IdPosIndex::pays(&[7], 512));
        // 64 consecutive keys: 8 + 4 bytes against 256.
        let dense: Vec<Id> = (1000..1064).collect();
        assert!(IdPosIndex::pays(&dense, 512));
        // Two keys a million ids apart: ~128 KB against 8 bytes.
        assert!(!IdPosIndex::pays(&[0, 1_000_000], 512));
        // No keys, no bytes either way.
        assert!(IdPosIndex::pays(&[], 512));
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_unaligned_interval() {
        IdPosIndex::build(&[], 100);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rule_rejects_unaligned_interval() {
        IdPosIndex::pays(&[1, 2], 0);
    }

    /// Sorted distinct keys: offsets under 5 000 added to a base near
    /// 0, near `u32::MAX` (saturating, so `u32::MAX` itself is often a
    /// key) or anywhere; zero, one or many of them.
    fn arb_keys() -> impl Strategy<Value = Vec<Id>> {
        let base = prop_oneof![0..1_000u32, (u32::MAX - 6_000)..=u32::MAX, any::<u32>()];
        let offsets = prop_oneof![
            Just(Vec::new()),
            prop::collection::vec(0..5_000u32, 1..2),
            prop::collection::vec(0..5_000u32, 0..400),
        ];
        (base, offsets).prop_map(|(base, offsets)| {
            let mut keys: Vec<Id> = offsets
                .into_iter()
                .map(|o| base.saturating_add(o))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        })
    }

    proptest! {
        /// The span index answers like binary search on the keys, for
        /// every id in and around the span and at both ends of the id
        /// range; ids below the first key or above the last miss.
        #[test]
        fn span_index_equals_binary_search(
            keys in arb_keys(),
            interval in (0u32..4).prop_map(|p| 64usize << p),
            extra in prop::collection::vec(any::<u32>(), 0..32),
        ) {
            let idx = IdPosIndex::build(&keys, interval);
            prop_assert_eq!(idx.memory_bytes(), IdPosIndex::bytes_for(&keys, interval));
            let (lo, hi) = match (keys.first(), keys.last()) {
                (Some(&f), Some(&l)) => (f.saturating_sub(130), l.saturating_add(130)),
                _ => (0, 130),
            };
            let probes = (lo..=hi).chain([0, 1, u32::MAX - 1, u32::MAX]).chain(extra);
            for id in probes {
                let want = keys.binary_search(&id).ok();
                prop_assert_eq!(idx.lookup(id), want, "id {}", id);
                prop_assert_eq!(idx.contains(id), want.is_some(), "id {}", id);
                let outside = keys.first().is_none_or(|&f| id < f)
                    || keys.last().is_some_and(|&l| id > l);
                if outside {
                    prop_assert_eq!(idx.lookup(id), None);
                }
            }
        }
    }
}
