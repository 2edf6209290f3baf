//! FxHash (the multiply-xor hash rustc uses) for dictionary keys. It is
//! not DoS-resistant, and need not be: keys come from data the operator
//! chose to load, and SipHash is measurably slower on short strings.

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn add_to_hash(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Hash a byte string with FxHash in one call.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
    let mut h = (&mut chunks).fold(0, |h, c| add_to_hash(h, word(c)));
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        // Mix in the length so "a" and "a\0" differ.
        buf[7] = rem.len() as u8;
        h = add_to_hash(h, u64::from_le_bytes(buf));
    }
    // Murmur3's fmix64: the bare state barely mixes the high bytes of
    // the last word (same-length IRIs differing in one digit).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
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
