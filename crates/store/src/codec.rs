//! Block-compressed value storage: position-addressed blocks of
//! frame-of-reference run starts and bitpacked in-run deltas.
//!
//! A [`crate::Replica`] stores each key's sorted value run contiguously;
//! run `k` occupies value positions `offsets[k]..offsets[k + 1]`. Raw
//! values cost 4 bytes each. This module splits the same array into two
//! sequences, and which one a position belongs to is known from the
//! resident `offsets` table — it is never stored:
//!
//! * the **starts** — the first value of every run, one per key. Starts
//!   are arbitrary ids, so they are kept frame-of-reference: start block
//!   `b` covers keys `[128·b, 128·b + 128)` and stores `start − base` at
//!   its own width, `base` being its smallest start;
//! * the **deltas** — every other position `i`, as `v[i] − v[i−1] − 1`.
//!   Runs are strictly increasing (RDF set semantics), so this is a
//!   small integer, frequently zero for the dense id ranges the
//!   dictionary hands out. Position `i` of run `k` is delta number
//!   `i − k − 1` (each earlier run took one position for its start);
//!   delta block `b` covers deltas `[128·b, 128·b + 128)` at its own
//!   width, and its `base` is the value its first delta adds to.
//!
//! ```text
//! bytes := start-block*  delta-block*  pad[8]
//! block := ⌈items · width / 8⌉ bytes, LSB-first
//! starts, deltas := { byte_off, base, width }    per block
//! ```
//!
//! Locating a run is therefore pure arithmetic: the first value of the
//! run at key position `pos` is item `pos % 128` of start block
//! `pos / 128` — no per-run header, no walk, and no dependence on
//! `offsets` at all — and its deltas begin at delta number
//! `offsets[pos] − pos`. A probe into a run that spans several delta
//! blocks picks its block by binary search over their `base` values,
//! which are values of that run.
//!
//! Probes and decodes are fused scalar loops over the bit stream — read
//! a field, add, compare or emit. There is no SIMD and no `unsafe`
//! here: a vectorized prefix sum or scan needs the fields unpacked
//! first, and that pass alone costs as much as the fused loop
//! (measurements in DESIGN.md §18.2).

use parj_dict::Id;

/// Items (starts or deltas) per compressed block.
pub const BLOCK_LEN: usize = 128;

/// Zeroed tail of `bytes`, so every bit field can be fetched with one
/// unaligned 8-byte load.
const PAD: usize = 8;

/// Side-table entry of one block of [`BLOCK_LEN`] bitpacked items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    /// Byte offset of the block's items.
    byte_off: u32,
    /// Start blocks: the smallest start (the frame of reference).
    /// Delta blocks: the value the block's first delta adds to.
    base: Id,
    /// Bit width of the items.
    width: u8,
}

impl Block {
    /// Bit offset of item `i` of the block.
    #[inline]
    fn bit(&self, i: usize) -> usize {
        self.byte_off as usize * 8 + i * self.width as usize
    }
}

/// One replica's value area, block-compressed. Logical run boundaries
/// are *not* stored here — every accessor takes the CSR `offsets` table
/// the values were packed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedValues {
    /// Concatenated block bodies plus [`PAD`] zero bytes.
    bytes: Vec<u8>,
    /// One entry per [`BLOCK_LEN`] keys.
    starts: Vec<Block>,
    /// One entry per [`BLOCK_LEN`] non-start positions.
    deltas: Vec<Block>,
    /// Total logical values across all runs.
    num_values: usize,
}

impl PackedValues {
    /// Packs the value area of a CSR replica. `offsets` must be the
    /// replica's offsets table (strictly increasing, first 0, last
    /// `values.len()`), and every run must be strictly increasing.
    ///
    /// # Panics
    /// Panics if `offsets` is not such a table.
    pub fn pack(offsets: &[u32], values: &[Id]) -> PackedValues {
        assert!(
            offsets.first() == Some(&0)
                && offsets.last().map(|&e| e as usize) == Some(values.len())
                && offsets.windows(2).all(|w| w[0] < w[1]),
            "offsets must be a CSR table of nonempty runs over the values"
        );
        let num_keys = offsets.len() - 1;
        let mut bytes = Vec::with_capacity(values.len());
        let mut items: Vec<u32> = Vec::with_capacity(BLOCK_LEN);

        let mut starts = Vec::with_capacity(num_keys.div_ceil(BLOCK_LEN));
        for keys in offsets[..num_keys].chunks(BLOCK_LEN) {
            let base = keys.iter().map(|&o| values[o as usize]).min().unwrap_or(0);
            items.clear();
            items.extend(keys.iter().map(|&o| values[o as usize] - base));
            starts.push(write_block(&mut bytes, base, &items));
        }

        let mut deltas = Vec::with_capacity((values.len() - num_keys).div_ceil(BLOCK_LEN));
        let mut base = 0;
        items.clear();
        for run in offsets.windows(2) {
            for i in run[0] as usize + 1..run[1] as usize {
                debug_assert!(values[i - 1] < values[i], "run not strictly increasing");
                if items.is_empty() {
                    base = values[i - 1];
                }
                items.push(values[i] - values[i - 1] - 1);
                if items.len() == BLOCK_LEN {
                    deltas.push(write_block(&mut bytes, base, &items));
                    items.clear();
                }
            }
        }
        if !items.is_empty() {
            deltas.push(write_block(&mut bytes, base, &items));
        }

        bytes.extend_from_slice(&[0; PAD]);
        bytes.shrink_to_fit();
        PackedValues {
            bytes,
            starts,
            deltas,
            num_values: values.len(),
        }
    }

    /// Total logical values.
    #[inline]
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Bytes used by the packed encoding plus both block side tables.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len() + (self.starts.len() + self.deltas.len()) * std::mem::size_of::<Block>()
    }

    /// Borrows the run at key position `pos`. `offsets` must be the
    /// same table the values were packed with.
    #[inline]
    pub fn run<'a>(&'a self, pos: usize, offsets: &[u32]) -> PackedRun<'a> {
        PackedRun {
            packed: self,
            key: pos as u32,
            start: offsets[pos],
            len: offsets[pos + 1] - offsets[pos],
        }
    }

    /// Appends every logical value, in order, to `out`.
    pub fn decode_all(&self, offsets: &[u32], out: &mut Vec<Id>) {
        for pos in 0..offsets.len().saturating_sub(1) {
            self.run(pos, offsets).decode_into(out);
        }
    }
}

/// One key's packed value run: its key position and value positions in
/// a borrowed [`PackedValues`]. Everything else is computed on demand.
#[derive(Debug, Clone, Copy)]
pub struct PackedRun<'a> {
    packed: &'a PackedValues,
    key: u32,
    start: u32,
    len: u32,
}

impl<'a> PackedRun<'a> {
    /// Logical number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the run holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first (smallest) value, if any.
    #[inline]
    pub fn first(&self) -> Option<Id> {
        (self.len > 0).then(|| self.first_value())
    }

    /// The run's start. The run must not be empty.
    #[inline]
    fn first_value(&self) -> Id {
        let key = self.key as usize;
        let blk = &self.packed.starts[key / BLOCK_LEN];
        blk.base
            + read_bits(
                &self.packed.bytes,
                blk.bit(key % BLOCK_LEN),
                blk.width as u32,
            )
    }

    /// Delta numbers of the run: one per value after the first.
    #[inline]
    fn delta_span(&self) -> (usize, usize) {
        let d0 = (self.start - self.key) as usize;
        (d0, d0 + self.len as usize - 1)
    }

    /// Membership probe: O(1) to the run's start and first delta (binary
    /// search over delta-block bases when the run spans several), then
    /// an early-exit prefix sum over at most one block of deltas.
    pub fn contains(&self, v: Id) -> bool {
        if self.len == 0 {
            return false;
        }
        let first = self.first_value();
        if v <= first || self.len == 1 {
            return v == first;
        }
        let (d0, end) = self.delta_span();
        // Last overlapped delta block whose base is <= v (the first if
        // none): later blocks' bases are values of this run.
        let (b0, b1) = (d0 / BLOCK_LEN, (end - 1) / BLOCK_LEN);
        let b = b0 + self.packed.deltas[b0 + 1..=b1].partition_point(|blk| blk.base <= v);
        let blk = &self.packed.deltas[b];
        let (mut acc, lo) = if b == b0 {
            (first, d0)
        } else {
            (blk.base, b * BLOCK_LEN)
        };
        let n = end.min((b + 1) * BLOCK_LEN) - lo;
        if blk.width == 0 {
            // Consecutive ids: a range check.
            return (v - acc) as usize <= n;
        }
        let mut bit = blk.bit(lo % BLOCK_LEN);
        for _ in 0..n {
            if acc >= v {
                break;
            }
            acc += read_bits(&self.packed.bytes, bit, blk.width as u32) + 1;
            bit += blk.width as usize;
        }
        acc == v
    }

    /// Appends every value of the run, in order, to `out`. The cursor's
    /// loop with its state in locals: `out.extend(self.iter())` measured
    /// 3.4 ns/value against 1.25 here.
    pub fn decode_into(&self, out: &mut Vec<Id>) {
        if self.len == 0 {
            return;
        }
        let mut prev = self.first_value();
        out.push(prev);
        let (mut d, end) = self.delta_span();
        while d < end {
            let blk = &self.packed.deltas[d / BLOCK_LEN];
            let stop = end.min((d / BLOCK_LEN + 1) * BLOCK_LEN);
            let mut bit = blk.bit(d % BLOCK_LEN);
            for _ in d..stop {
                prev += read_bits(&self.packed.bytes, bit, blk.width as u32) + 1;
                bit += blk.width as usize;
                out.push(prev);
            }
            d = stop;
        }
    }

    /// Streaming iterator over the run's values.
    #[inline]
    pub fn iter(&self) -> PackedRunIter<'a> {
        PackedRunIter {
            run: *self,
            next: 0,
            prev: 0,
            bit: 0,
            w: 0,
            left: 0,
        }
    }
}

/// Streaming bit cursor over a [`PackedRun`]: a few words of state, no
/// decode buffer.
#[derive(Debug, Clone)]
pub struct PackedRunIter<'a> {
    run: PackedRun<'a>,
    /// Index in the run of the next value.
    next: u32,
    prev: Id,
    /// Bit offset and width of the next delta, valid while `left > 0`.
    bit: usize,
    w: u32,
    /// Deltas left in the current delta block.
    left: u32,
}

impl Iterator for PackedRunIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        if self.next == self.run.len {
            return None;
        }
        let v = if self.next == 0 {
            self.run.first_value()
        } else {
            if self.left == 0 {
                let d = (self.run.start - self.run.key + self.next - 1) as usize;
                let blk = &self.run.packed.deltas[d / BLOCK_LEN];
                self.bit = blk.bit(d % BLOCK_LEN);
                self.w = blk.width as u32;
                self.left = (BLOCK_LEN - d % BLOCK_LEN) as u32;
            }
            let delta = read_bits(&self.run.packed.bytes, self.bit, self.w);
            self.bit += self.w as usize;
            self.left -= 1;
            self.prev + delta + 1
        };
        self.prev = v;
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.run.len - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PackedRunIter<'_> {}

/// The `width` (≤ 32) bits at bit offset `bit` of `bytes`, LSB-first.
/// One unaligned 8-byte load: `bytes` ends in [`PAD`] zero bytes.
#[inline]
fn read_bits(bytes: &[u8], bit: usize, width: u32) -> u32 {
    let at = bit >> 3;
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    ((u64::from_le_bytes(word) >> (bit & 7)) & ((1u64 << width) - 1)) as u32
}

/// Appends `items` to `bytes` as one byte-aligned block, LSB-first at
/// the width of the largest, returning its side-table entry.
fn write_block(bytes: &mut Vec<u8>, base: Id, items: &[u32]) -> Block {
    assert!(
        bytes.len() <= u32::MAX as usize,
        "packed area exceeds u32 offsets"
    );
    let width = 32 - items.iter().copied().max().unwrap_or(0).leading_zeros() as usize;
    let block = Block {
        byte_off: bytes.len() as u32,
        base,
        width: width as u8,
    };
    let (mut acc, mut bits) = (0u64, 0);
    for &v in items {
        acc |= (v as u64) << bits;
        bits += width;
        while bits >= 8 {
            bytes.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        bytes.push(acc as u8);
    }
    block
}

/// Always `false`: the codec has no vectorized kernels any more (see
/// the module docs). Kept because `parj-bench` stamps it into every run
/// record.
pub fn simd_active() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pack_runs(runs: &[Vec<Id>]) -> (PackedValues, Vec<u32>, Vec<Id>) {
        let mut offsets = vec![0u32];
        for r in runs {
            offsets.push(offsets[offsets.len() - 1] + r.len() as u32);
        }
        let values: Vec<Id> = runs.iter().flatten().copied().collect();
        (PackedValues::pack(&offsets, &values), offsets, values)
    }

    /// Strictly increasing run starting at `start` with the given
    /// `gap − 1` deltas.
    fn run_from(start: Id, gaps: &[u32]) -> Vec<Id> {
        let mut v = start;
        let mut out = vec![v];
        for &g in gaps {
            v = v.checked_add(g + 1).expect("run fits in u32");
            out.push(v);
        }
        out
    }

    /// Model equivalence: every accessor of the packed form answers
    /// exactly like the raw slices it was packed from.
    fn assert_model(runs: &[Vec<Id>]) {
        let (packed, offsets, values) = pack_runs(runs);
        assert_eq!(packed.num_values(), values.len());
        let mut all = Vec::new();
        packed.decode_all(&offsets, &mut all);
        assert_eq!(all, values);
        for (i, r) in runs.iter().enumerate() {
            let pr = packed.run(i, &offsets);
            assert_eq!(pr.len(), r.len(), "run {i}");
            assert_eq!(pr.is_empty(), r.is_empty());
            assert_eq!(pr.first(), r.first().copied(), "run {i}");
            assert_eq!(pr.iter().len(), r.len());
            assert_eq!(&pr.iter().collect::<Vec<_>>(), r, "run {i}");
            let mut out = vec![7];
            pr.decode_into(&mut out);
            assert_eq!(&out[1..], r.as_slice(), "run {i}");
            // Members, their neighbours and the id-space ends.
            let probes = r
                .iter()
                .flat_map(|&v| [v.wrapping_sub(1), v, v.wrapping_add(1)])
                .chain([0, u32::MAX]);
            for v in probes {
                assert_eq!(
                    pr.contains(v),
                    r.binary_search(&v).is_ok(),
                    "run {i} probe {v}"
                );
            }
        }
    }

    #[test]
    fn single_run_lengths_and_widths() {
        // Lengths crossing every block boundary, including a run long
        // enough (40 blocks) that the block pick has real work; gap 0
        // is the width-0 range-check path.
        for len in [
            1usize, 2, 3, 47, 48, 49, 127, 128, 129, 255, 256, 257, 1000, 5000,
        ] {
            for gap in [0u32, 1, 7, 1000] {
                assert_model(&[run_from(5, &vec![gap; len - 1])]);
            }
        }
    }

    #[test]
    fn runs_straddling_block_edges_at_every_alignment() {
        // `lead` singleton runs put the next run's start at position
        // 126..=130, i.e. before, on and after the first block edge.
        for lead in 126u32..=130 {
            for len in [1usize, 2, 3, 60, 127, 128, 129, 300] {
                let mut runs: Vec<Vec<Id>> = (0..lead).map(|i| vec![i * 977 % 4001]).collect();
                runs.push(run_from(9, &vec![3; len - 1]));
                runs.extend((0..5u32).map(|i| vec![1_000_000 - i]));
                assert_model(&runs);
            }
        }
    }

    #[test]
    fn all_singletons() {
        let runs: Vec<Vec<Id>> = (0..1000u32)
            .map(|i| vec![i.wrapping_mul(2654435761) >> 8])
            .collect();
        assert_model(&runs);
    }

    #[test]
    fn id_space_ends_and_full_width_fields() {
        // Starts 0 and u32::MAX in one block need 32-bit residuals; the
        // run [0, u32::MAX] needs a 32-bit delta.
        assert_model(&[
            vec![0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![u32::MAX - 1, u32::MAX],
        ]);
        let mut runs = vec![vec![0, u32::MAX]; 70];
        runs.push(run_from(u32::MAX - 200, &[0; 200]));
        assert_model(&runs);
    }

    #[test]
    fn empty_area_packs_empty() {
        let (packed, offsets, _) = pack_runs(&[]);
        assert_eq!(packed.num_values(), 0);
        let mut out = Vec::new();
        packed.decode_all(&offsets, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "nonempty runs")]
    fn empty_runs_are_rejected() {
        PackedValues::pack(&[0, 1, 1, 2], &[4, 5]);
    }

    /// One run: a singleton, a short dense run, a long small-gap run
    /// (multi-block), or a sparse set over the whole id space (wide
    /// fields). LUBM-like mixes are mostly the first two.
    fn arb_run() -> impl Strategy<Value = Vec<Id>> {
        prop_oneof![
            6 => any::<u32>().prop_map(|v| vec![v]),
            3 => (0u32..1_000_000, proptest::collection::vec(0u32..4, 1..9))
                .prop_map(|(s, gaps)| run_from(s, &gaps)),
            1 => (0u32..1_000_000, proptest::collection::vec(0u32..64, 100..400))
                .prop_map(|(s, gaps)| run_from(s, &gaps)),
            1 => proptest::collection::vec(any::<u32>(), 1..40).prop_map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            }),
        ]
    }

    proptest! {
        /// Arbitrary CSR shapes against the raw-slice model.
        #[test]
        fn model_equivalence_random_csr(runs in proptest::collection::vec(arb_run(), 0..200)) {
            assert_model(&runs);
        }

        /// A run of any length starting at any alignment around a
        /// block edge, between singleton runs.
        #[test]
        fn model_equivalence_around_block_edges(
            lead in 120usize..137,
            len in 1usize..400,
            gap in 0u32..32,
            start in 0u32..100_000,
        ) {
            let mut runs: Vec<Vec<Id>> = (0..lead as u32).map(|i| vec![i * 31]).collect();
            runs.push(run_from(start, &vec![gap; len - 1]));
            runs.push(vec![3]);
            assert_model(&runs);
        }
    }
}
