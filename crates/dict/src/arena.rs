//! Append-only string arena: buckets of [`BUCKET`] strings, each a
//! header of lengths then the strings, in one payload, plus one offset
//! per bucket — a byte and a half of bookkeeping per string.

use std::ops::Range;

/// Strings per bucket: reading string `i` starts at the offset of
/// bucket `i / BUCKET` and adds up at most `BUCKET - 1` header lengths.
pub(crate) const BUCKET: usize = 16;

/// Header byte of a string of `LONG` bytes or more, whose length is
/// written just before it instead.
const LONG: u8 = 0x7f;

/// An append-only arena of UTF-8 strings, identified by insertion index.
///
/// A bucket starts with `BUCKET` header bytes, one per string: its byte
/// length, or `LONG` (0x7f). A long string is preceded by its length in
/// six-bit groups, low group first, `0x40` set on all but the last.
/// These bytes are ASCII, so the payload stays a `String` and a lookup
/// borrows a `&str` without re-validating UTF-8.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StringArena {
    /// The buckets, in insertion order.
    pub(crate) data: String,
    /// `starts[b]` is the position in `data` of bucket `b`.
    pub(crate) starts: Vec<u64>,
    len: usize,
}

/// `0x01` in every byte of a header word.
const ONES: u128 = u128::MAX / 0xff;
const _: () = assert!(BUCKET == size_of::<u128>(), "a header is one u128");

/// Sum of the sixteen bytes of `x`: byte pairs into 16-bit lanes, then
/// one multiply gathers every lane into the top one.
fn byte_sum(x: u128) -> usize {
    const LANES: u128 = u128::MAX / 0xffff;
    let pairs = (x & (LANES * 0xff)) + ((x >> 8) & (LANES * 0xff));
    (pairs.wrapping_mul(LANES) >> 112) as usize
}

/// Bytes written before an `n`-byte string besides its header byte.
fn prefix_len(n: usize) -> usize {
    let groups = (usize::BITS - (n >> 6).leading_zeros()).div_ceil(6) as usize + 1;
    if n < usize::from(LONG) {
        0
    } else {
        groups
    }
}

impl StringArena {
    /// Makes room for strings of the given lengths (exactly, in an
    /// arena with no spare room).
    pub fn reserve(&mut self, lengths: impl Iterator<Item = usize>) {
        let (mut strings, mut bytes) = (0usize, 0);
        for n in lengths {
            strings += 1;
            bytes += prefix_len(n) + n;
        }
        let buckets = (self.len + strings).div_ceil(BUCKET) - self.len.div_ceil(BUCKET);
        self.data.reserve(bytes + buckets * BUCKET);
        self.starts.reserve(buckets);
    }

    /// Appends a string, returning its index.
    #[inline]
    pub fn push(&mut self, s: &str) -> usize {
        let slot = self.len % BUCKET;
        if slot == 0 {
            self.starts.push(self.data.len() as u64);
            self.data.extend(['\0'; BUCKET]);
        }
        let head = s.len().min(usize::from(LONG)) as u8;
        let at = *self.starts.last().expect("a bucket is open") as usize + slot;
        self.data
            .replace_range(at..=at, char::from(head).encode_utf8(&mut [0; 4]));
        if head == LONG {
            let mut n = s.len();
            while n >= 0x40 {
                self.data.push(char::from(0x40 | (n & 0x3f) as u8));
                n >>= 6;
            }
            self.data.push(char::from(n as u8));
        }
        self.data.push_str(s);
        self.len += 1;
        self.len - 1
    }

    /// The byte range of the string with header byte `head` whose
    /// length prefix, if any, starts at `pos`.
    #[inline]
    fn span(&self, head: u8, pos: usize) -> Range<usize> {
        if head < LONG {
            return pos..pos + usize::from(head);
        }
        let prefix = &self.data.as_bytes()[pos..];
        let prefix = &prefix[..=prefix
            .iter()
            .position(|b| b & 0x40 == 0)
            .expect("last group")];
        let n = prefix
            .iter()
            .rev()
            .fold(0, |n, b| n << 6 | usize::from(b & 0x3f));
        pos + prefix.len()..pos + prefix.len() + n
    }

    /// Returns the string at `index`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&str> {
        if index >= self.len {
            return None;
        }
        let start = self.starts[index / BUCKET] as usize;
        let head = &self.data.as_bytes()[start..start + BUCKET];
        let slot = index % BUCKET;
        // The header bytes before `slot` as one word, the rest zeroed.
        let before =
            u128::from_le_bytes(head.try_into().expect("a full header")) & ((1 << (8 * slot)) - 1);
        let mut pos = start + BUCKET;
        if (before + ONES) & (ONES << 7) == 0 {
            // No `LONG` byte: skipping is adding up the lengths.
            pos += byte_sum(before);
        } else {
            for &h in &head[..slot] {
                pos = self.span(h, pos).end;
            }
        }
        Some(&self.data[self.span(head[slot], pos)])
    }

    /// Number of strings stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no strings are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes: the allocated capacity of the payload and offsets.
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity() + self.starts.capacity() * size_of::<u64>()
    }

    /// Releases spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
        self.starts.shrink_to_fit();
    }

    /// Iterates over all stored strings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + Clone {
        (0..self.len).map(|i| self.get(i).expect("index in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut a = StringArena::default();
        let i0 = a.push("hello");
        let i1 = a.push("");
        let i2 = a.push("wörld");
        assert_eq!((i0, i1, i2), (0, 1, 2));
        assert_eq!(a.get(0), Some("hello"));
        assert_eq!(a.get(1), Some(""));
        assert_eq!(a.get(2), Some("wörld"));
        assert_eq!(a.get(3), None);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_arena() {
        let a = StringArena::default();
        assert!(a.is_empty());
        assert_eq!(a.get(0), None);
        assert_eq!(a.iter().count(), 0);
        assert_eq!(a.memory_bytes(), 0);
    }

    #[test]
    fn iter_matches_insertion_order() {
        let mut a = StringArena::default();
        let input = ["a", "bb", "", "cccc"];
        for s in input {
            a.push(s);
        }
        let collected: Vec<&str> = a.iter().collect();
        assert_eq!(collected, input);
    }

    #[test]
    fn bucket_is_sixteen_strings() {
        assert_eq!(BUCKET, 16);
        let mut a = StringArena::default();
        for i in 0..100 {
            a.push(&"é".repeat(i));
        }
        // One offset per started bucket, each at a header whose first
        // byte is the length of the bucket's first string.
        assert_eq!(a.starts.len(), 100usize.div_ceil(BUCKET));
        for (b, &start) in a.starts.iter().enumerate() {
            let head = (2 * b * BUCKET).min(usize::from(LONG));
            assert_eq!(usize::from(a.data.as_bytes()[start as usize]), head);
        }
        for i in 0..100 {
            assert_eq!(a.get(i), Some("é".repeat(i).as_str()));
        }
    }

    #[test]
    fn long_strings_carry_ascii_length_prefixes() {
        let lengths = [0, 1, 126, 127, 4_095, 4_096, 262_144];
        let mut a = StringArena::default();
        a.reserve(lengths.iter().copied());
        let exact = a.data.capacity();
        for n in lengths {
            a.push(&"x".repeat(n));
        }
        assert_eq!(
            a.data.capacity(),
            exact,
            "reserve sizes an empty payload exactly"
        );
        assert_eq!(
            lengths.map(prefix_len),
            [0, 0, 0, 2, 2, 3, 4],
            "six bits per prefix byte"
        );
        assert!(a.data.bytes().filter(|&b| b != b'x').all(|b| b < 0x80));
        for (i, n) in lengths.into_iter().enumerate() {
            assert_eq!(a.get(i).map(str::len), Some(n));
        }
        assert_eq!(a.iter().map(str::len).collect::<Vec<_>>(), lengths);
    }
}
