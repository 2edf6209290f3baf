//! A small, fast, non-cryptographic hasher (the FxHash algorithm used by
//! rustc) for dictionary string lookups.
//!
//! The default `std` hasher (SipHash-1-3) is DoS-resistant but measurably
//! slower for the short, trusted strings a loader hashes billions of
//! times. Dictionary keys come from data the operator chose to load, so
//! hash-flooding is not part of the threat model and the faster
//! multiply-xor hash is the right trade (see the Rust Performance Book's
//! "Hashing" chapter). Implemented inline to keep the workspace free of
//! extra dependencies.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash state. Use via [`FxBuildHasher`] in a `HashMap`, or call
/// [`fx_hash_bytes`] directly.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "a" and "a\0" differ.
            buf[7] = rem.len() as u8;
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Murmur3-style finalizer: the bare multiply-xor state leaves the
        // low 32 bits untouched when inputs differ only in high bytes of
        // the final word (e.g. same-length IRIs differing in one digit),
        // which would collapse `HashMap` buckets. fmix64 restores
        // avalanche over all 64 bits.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash-keyed dedup index over keys the caller stores elsewhere and
/// numbers densely (a candidate batch, a list of first occurrences): it
/// maps a key's 64-bit hash to the number of the first entry with that
/// hash and keeps the rare entries whose hash was already taken in a
/// side list — one `u32` per distinct key, no allocation per key.
#[derive(Debug, Default)]
pub struct DedupIndex {
    first: HashMap<u64, u32, FxBuildHasher>,
    collided: Vec<u32>,
}

impl DedupIndex {
    /// Returns the entry that holds the probed key (`same(i)` tells
    /// whether entry `i` does). When there is none, registers `next` —
    /// the number the caller is about to give the key — and returns
    /// `None`. `hash` must be the key's [`fx_hash_bytes`].
    pub fn find_or_register(
        &mut self,
        hash: u64,
        next: u32,
        same: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(next);
                None
            }
            Entry::Occupied(first) => {
                let hit = Some(*first.get())
                    .filter(|&i| same(i))
                    .or_else(|| self.collided.iter().copied().find(|&i| same(i)));
                if hit.is_none() {
                    self.collided.push(next);
                }
                hit
            }
        }
    }
}

/// Hash a byte string with FxHash in one call.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_bytes(b"hello"), fx_hash_bytes(b"hello"));
    }

    #[test]
    fn distinguishes_common_strings() {
        let a = fx_hash_bytes(b"http://example.org/a");
        let b = fx_hash_bytes(b"http://example.org/b");
        assert_ne!(a, b);
    }

    #[test]
    fn length_sensitive_tail() {
        // Trailing NULs must not collide with the shorter string.
        assert_ne!(fx_hash_bytes(b"a"), fx_hash_bytes(b"a\0"));
        assert_ne!(fx_hash_bytes(b""), fx_hash_bytes(b"\0"));
    }

    #[test]
    fn empty_input_is_stable() {
        assert_eq!(fx_hash_bytes(b""), fx_hash_bytes(b""));
    }

    #[test]
    fn spread_over_buckets() {
        // Sanity check the hash actually spreads sequential keys: with
        // 1024 keys into 256 buckets no bucket should hold more than ~5x
        // the mean.
        let mut buckets = [0u32; 256];
        for i in 0..1024 {
            let s = format!("http://example.org/resource/{i}");
            buckets[(fx_hash_bytes(s.as_bytes()) % 256) as usize] += 1;
        }
        let max = buckets.iter().copied().max().unwrap();
        assert!(max <= 20, "suspiciously clustered hash: max bucket {max}");
    }
}
